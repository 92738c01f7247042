package tensor

import (
	"fmt"
	"math"
)

// AddInPlace adds o into t element-wise. Shapes must have equal
// element counts.
func (t *Tensor) AddInPlace(o *Tensor) error {
	if len(t.Data) != len(o.Data) {
		return fmt.Errorf("tensor: add size mismatch %v vs %v", t.Shape, o.Shape)
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
	return nil
}

// SubInPlace subtracts o from t element-wise.
func (t *Tensor) SubInPlace(o *Tensor) error {
	if len(t.Data) != len(o.Data) {
		return fmt.Errorf("tensor: sub size mismatch %v vs %v", t.Shape, o.Shape)
	}
	for i, v := range o.Data {
		t.Data[i] -= v
	}
	return nil
}

// Add returns t + o as a new tensor.
func Add(t, o *Tensor) (*Tensor, error) {
	r := t.Clone()
	if err := r.AddInPlace(o); err != nil {
		return nil, err
	}
	return r, nil
}

// Sub returns t - o as a new tensor.
func Sub(t, o *Tensor) (*Tensor, error) {
	r := t.Clone()
	if err := r.SubInPlace(o); err != nil {
		return nil, err
	}
	return r, nil
}

// Scale multiplies every element of t by s, in place, and returns t
// for chaining.
func (t *Tensor) Scale(s float64) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// AddScaled adds s*o into t, the AXPY primitive used by the
// optimizers. Shapes must have equal element counts.
func (t *Tensor) AddScaled(o *Tensor, s float64) error {
	if len(t.Data) != len(o.Data) {
		return fmt.Errorf("tensor: axpy size mismatch %v vs %v", t.Shape, o.Shape)
	}
	for i, v := range o.Data {
		t.Data[i] += s * v
	}
	return nil
}

// Apply replaces every element x with f(x), in place.
func (t *Tensor) Apply(f func(float64) float64) {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
}

// Map returns a new tensor whose elements are f applied to t's.
func (t *Tensor) Map(f func(float64) float64) *Tensor {
	r := New(t.Shape...)
	for i, v := range t.Data {
		r.Data[i] = f(v)
	}
	return r
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements, or 0 for an empty
// tensor.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Max returns the maximum element and its flat index. It panics on an
// empty tensor, which can only arise from a zero-sized shape.
func (t *Tensor) Max() (float64, int) {
	best, arg := math.Inf(-1), -1
	for i, v := range t.Data {
		if v > best {
			best, arg = v, i
		}
	}
	return best, arg
}

// Min returns the minimum element and its flat index.
func (t *Tensor) Min() (float64, int) {
	best, arg := math.Inf(1), -1
	for i, v := range t.Data {
		if v < best {
			best, arg = v, i
		}
	}
	return best, arg
}

// ArgMax returns the flat index of the maximum element.
func (t *Tensor) ArgMax() int {
	_, i := t.Max()
	return i
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of the flattened tensors.
func Dot(a, b *Tensor) (float64, error) {
	if len(a.Data) != len(b.Data) {
		return 0, fmt.Errorf("tensor: dot size mismatch %v vs %v", a.Shape, b.Shape)
	}
	s := 0.0
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s, nil
}

// MatMul computes the matrix product of a (m×k) and b (k×n) into a new
// m×n tensor. Both inputs must be rank-2.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("tensor: matmul needs rank-2 inputs, got %v and %v", a.Shape, b.Shape)
	}
	out := New(a.Shape[0], b.Shape[1])
	if err := MatMulInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// MatMulInto computes a·b into out, which must be a rank-2 m×n tensor
// (its contents are overwritten). Output rows are computed in parallel
// on the bounded kernel pool; each row's accumulation order is the
// sequential ikj order, so results are bit-identical to MatMul
// regardless of how the rows are scheduled.
func MatMulInto(out, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 {
		return fmt.Errorf("tensor: matmul needs rank-2 inputs, got %v and %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return fmt.Errorf("tensor: matmul inner dims differ: %v vs %v", a.Shape, b.Shape)
	}
	if out.Rank() != 2 || out.Shape[0] != m || out.Shape[1] != n {
		return fmt.Errorf("tensor: matmul out shape %v, want [%d,%d]", out.Shape, m, n)
	}
	out.Zero()
	// Closure built only on the split path — see Im2ColBatchInto.
	if ParallelChunks(m, 2*k*n) <= 1 {
		matmulRows(out.Data, a.Data, b.Data, k, n, 0, m)
	} else {
		ParallelFor(m, 2*k*n, func(lo, hi int) {
			matmulRows(out.Data, a.Data, b.Data, k, n, lo, hi)
		})
	}
	return nil
}

// matmulRows computes output rows [lo, hi) of a·b — the chunk body of
// MatMulInto. The ikj loop order keeps the innermost accesses
// sequential in both b and out, which matters on the hot training
// path, and makes each row's accumulation order independent of the
// chunking, so parallel results are bit-identical to sequential.
func matmulRows(out, a, b []float64, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulTransA computes aᵀ·b where a is k×m and b is k×n, yielding
// m×n. Used by conv/linear backward passes to avoid materialising the
// transpose.
func MatMulTransA(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("tensor: matmulTA needs rank-2 inputs, got %v and %v", a.Shape, b.Shape)
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: matmulTA inner dims differ: %v vs %v", a.Shape, b.Shape)
	}
	out := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MatMulTransB computes a·bᵀ where a is m×k and b is n×k, yielding
// m×n.
func MatMulTransB(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("tensor: matmulTB needs rank-2 inputs, got %v and %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: matmulTB inner dims differ: %v vs %v", a.Shape, b.Shape)
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			orow[j] = s
		}
	}
	return out, nil
}

// Transpose2D returns the transpose of a rank-2 tensor as a new
// tensor.
func Transpose2D(a *Tensor) (*Tensor, error) {
	if a.Rank() != 2 {
		return nil, fmt.Errorf("tensor: transpose needs rank-2 input, got %v", a.Shape)
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out, nil
}

// Softmax returns the softmax of a rank-1 tensor, computed with the
// usual max-subtraction for numerical stability.
func Softmax(logits *Tensor) *Tensor {
	out := New(logits.Shape...)
	maxv, _ := logits.Max()
	sum := 0.0
	for i, v := range logits.Data {
		e := math.Exp(v - maxv)
		out.Data[i] = e
		sum += e
	}
	if sum == 0 {
		sum = 1
	}
	for i := range out.Data {
		out.Data[i] /= sum
	}
	return out
}

// AllFinite reports whether every element is a finite number; the
// training loops use this as a divergence guard.
func (t *Tensor) AllFinite() bool {
	for _, v := range t.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Clamp limits every element to [lo, hi] in place.
func (t *Tensor) Clamp(lo, hi float64) {
	for i, v := range t.Data {
		if v < lo {
			t.Data[i] = lo
		} else if v > hi {
			t.Data[i] = hi
		}
	}
}
