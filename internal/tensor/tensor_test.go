package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapesAndLen(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
		want  int
	}{
		{name: "scalar", shape: []int{1}, want: 1},
		{name: "vector", shape: []int{7}, want: 7},
		{name: "matrix", shape: []int{3, 4}, want: 12},
		{name: "video", shape: []int{2, 8, 6, 5}, want: 480},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := New(tt.shape...)
			if x.Len() != tt.want {
				t.Fatalf("Len = %d, want %d", x.Len(), tt.want)
			}
			if x.Rank() != len(tt.shape) {
				t.Fatalf("Rank = %d, want %d", x.Rank(), len(tt.shape))
			}
			for _, v := range x.Data {
				if v != 0 {
					t.Fatal("New must be zero-filled")
				}
			}
		})
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(42, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 42 {
		t.Fatalf("At = %v, want 42", got)
	}
	if got := x.Data[1*12+2*4+3]; got != 42 {
		t.Fatalf("flat offset = %v, want 42 (row-major layout broken)", got)
	}
}

func TestFromSliceValidation(t *testing.T) {
	if _, err := FromSlice([]float64{1, 2, 3}, 2, 2); err == nil {
		t.Fatal("expected error for mismatched slice length")
	}
	x, err := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if x.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", x.At(1, 0))
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.MustReshape(3, 2)
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("reshape must share backing data")
	}
	if _, err := x.Reshape(4, 2); err == nil {
		t.Fatal("expected error for incompatible reshape")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := Full(3, 2, 2)
	y := x.Clone()
	y.Set(0, 0, 0)
	if x.At(0, 0) != 3 {
		t.Fatal("clone must not share data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := MustFromSlice([]float64{10, 20, 30, 40}, 2, 2)

	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.At(1, 1) != 44 {
		t.Fatalf("Add = %v", sum.Data)
	}

	diff, err := Sub(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if diff.At(0, 0) != 9 {
		t.Fatalf("Sub = %v", diff.Data)
	}

	if err := a.AddInPlace(New(3)); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

func TestAddScaledAXPY(t *testing.T) {
	x := MustFromSlice([]float64{1, 1}, 2)
	g := MustFromSlice([]float64{2, 4}, 2)
	if err := x.AddScaled(g, -0.5); err != nil {
		t.Fatal(err)
	}
	if x.Data[0] != 0 || x.Data[1] != -1 {
		t.Fatalf("AddScaled = %v", x.Data)
	}
}

func TestReductions(t *testing.T) {
	x := MustFromSlice([]float64{-1, 5, 2, 0}, 4)
	if x.Sum() != 6 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 1.5 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if v, i := x.Max(); v != 5 || i != 1 {
		t.Fatalf("Max = %v,%d", v, i)
	}
	if v, i := x.Min(); v != -1 || i != 0 {
		t.Fatalf("Min = %v,%d", v, i)
	}
	if x.ArgMax() != 1 {
		t.Fatalf("ArgMax = %d", x.ArgMax())
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a := New(2, 3)
	b := New(4, 2)
	if _, err := MatMul(a, b); err == nil {
		t.Fatal("expected inner-dimension error")
	}
	if _, err := MatMul(New(2), b); err == nil {
		t.Fatal("expected rank error")
	}
}

// TestMatMulTransposeVariantsAgree checks that the transpose-fused
// products equal the explicit transpose followed by MatMul.
func TestMatMulTransposeVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandnTensor(rng, 1, 4, 3) // k×m for TransA
	b := RandnTensor(rng, 1, 4, 5) // k×n

	ta, err := Transpose2D(a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MatMul(ta, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MatMulTransA(a, b)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, got, want, 1e-12)

	c := RandnTensor(rng, 1, 6, 4) // m×k
	d := RandnTensor(rng, 1, 5, 4) // n×k
	td, err := Transpose2D(d)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := MatMul(c, td)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := MatMulTransB(c, d)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, got2, want2, 1e-12)
}

func TestSoftmaxProperties(t *testing.T) {
	x := MustFromSlice([]float64{1000, 1001, 999}, 3)
	s := Softmax(x)
	sum := s.Sum()
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax sum = %v, want 1", sum)
	}
	if s.ArgMax() != 1 {
		t.Fatalf("softmax argmax = %d, want 1", s.ArgMax())
	}
	for _, v := range s.Data {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("softmax produced invalid probability %v", v)
		}
	}
}

func TestClampAndFinite(t *testing.T) {
	x := MustFromSlice([]float64{-5, 0.5, 9}, 3)
	x.Clamp(0, 1)
	if x.Data[0] != 0 || x.Data[2] != 1 {
		t.Fatalf("Clamp = %v", x.Data)
	}
	if !x.AllFinite() {
		t.Fatal("finite tensor reported non-finite")
	}
	x.Data[1] = math.NaN()
	if x.AllFinite() {
		t.Fatal("NaN not detected")
	}
}

func TestKaimingStd(t *testing.T) {
	if got := KaimingStd(2); math.Abs(got-1) > 1e-12 {
		t.Fatalf("KaimingStd(2) = %v, want 1", got)
	}
	if got := KaimingStd(0); got != 1 {
		t.Fatalf("KaimingStd(0) = %v, want fallback 1", got)
	}
}

// Property: matmul distributes over addition, (A+B)·C = A·C + B·C.
func TestPropertyMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := RandnTensor(rng, 1, m, k)
		b := RandnTensor(rng, 1, m, k)
		c := RandnTensor(rng, 1, k, n)

		ab, _ := Add(a, b)
		left, err := MatMul(ab, c)
		if err != nil {
			return false
		}
		ac, _ := MatMul(a, c)
		bc, _ := MatMul(b, c)
		right, _ := Add(ac, bc)
		return maxAbsDiff(left, right) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: dot(a,b) equals (a as 1×n)·(b as n×1).
func TestPropertyDotMatchesMatMul(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		a := RandnTensor(rng, 1, n)
		b := RandnTensor(rng, 1, n)
		d, err := Dot(a, b)
		if err != nil {
			return false
		}
		m, err := MatMul(a.MustReshape(1, n), b.MustReshape(n, 1))
		if err != nil {
			return false
		}
		return math.Abs(d-m.Data[0]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax is invariant to adding a constant to all logits.
func TestPropertySoftmaxShiftInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		x := RandnTensor(rng, 3, n)
		shift := rng.NormFloat64() * 10
		y := x.Map(func(v float64) float64 { return v + shift })
		return maxAbsDiff(Softmax(x), Softmax(y)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func assertClose(t *testing.T, got, want *Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape %v, want %v", got.Shape, want.Shape)
	}
	if d := maxAbsDiff(got, want); d > tol {
		t.Fatalf("max abs diff %v exceeds %v", d, tol)
	}
}

func maxAbsDiff(a, b *Tensor) float64 {
	d := 0.0
	for i := range a.Data {
		if v := math.Abs(a.Data[i] - b.Data[i]); v > d {
			d = v
		}
	}
	return d
}
