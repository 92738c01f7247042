package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvOutSize(t *testing.T) {
	tests := []struct {
		name       string
		n, k, s, p int
		want       int
	}{
		{name: "same-pad stride1", n: 8, k: 3, s: 1, p: 1, want: 8},
		{name: "valid stride1", n: 8, k: 3, s: 1, p: 0, want: 6},
		{name: "stride2", n: 8, k: 3, s: 2, p: 1, want: 4},
		{name: "kernel=n", n: 5, k: 5, s: 1, p: 0, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ConvOutSize(tt.n, tt.k, tt.s, tt.p); got != tt.want {
				t.Fatalf("ConvOutSize = %d, want %d", got, tt.want)
			}
		})
	}
}

// conv2DRef is a direct-loop reference convolution used to validate
// the im2col + matmul path.
func conv2DRef(x, w *Tensor, oc, kh, kw, sh, sw, ph, pw int) *Tensor {
	c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2]
	oh := ConvOutSize(h, kh, sh, ph)
	ow := ConvOutSize(wd, kw, sw, pw)
	out := New(oc, oh, ow)
	for o := 0; o < oc; o++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := 0.0
				for ci := 0; ci < c; ci++ {
					for ki := 0; ki < kh; ki++ {
						for kj := 0; kj < kw; kj++ {
							iy := oy*sh - ph + ki
							ix := ox*sw - pw + kj
							if iy < 0 || iy >= h || ix < 0 || ix >= wd {
								continue
							}
							s += x.At(ci, iy, ix) * w.At(o, (ci*kh+ki)*kw+kj)
						}
					}
				}
				out.Set(s, o, oy, ox)
			}
		}
	}
	return out
}

func TestIm2ColMatchesDirectConv(t *testing.T) {
	tests := []struct {
		name                string
		c, h, w, oc, kh, kw int
		sh, sw, ph, pw      int
	}{
		{name: "1ch-3x3-pad", c: 1, h: 6, w: 7, oc: 2, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1},
		{name: "2ch-stride2", c: 2, h: 8, w: 8, oc: 3, kh: 3, kw: 3, sh: 2, sw: 2, ph: 1, pw: 1},
		{name: "asym-kernel", c: 2, h: 5, w: 9, oc: 1, kh: 1, kw: 3, sh: 1, sw: 2, ph: 0, pw: 1},
	}
	rng := rand.New(rand.NewSource(7))
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := RandnTensor(rng, 1, tt.c, tt.h, tt.w)
			wt := RandnTensor(rng, 1, tt.oc, tt.c*tt.kh*tt.kw)

			cols, err := Im2Col(x, tt.kh, tt.kw, tt.sh, tt.sw, tt.ph, tt.pw)
			if err != nil {
				t.Fatal(err)
			}
			prod, err := MatMul(wt, cols)
			if err != nil {
				t.Fatal(err)
			}
			oh := ConvOutSize(tt.h, tt.kh, tt.sh, tt.ph)
			ow := ConvOutSize(tt.w, tt.kw, tt.sw, tt.pw)
			got := prod.MustReshape(tt.oc, oh, ow)
			want := conv2DRef(x, wt, tt.oc, tt.kh, tt.kw, tt.sh, tt.sw, tt.ph, tt.pw)
			assertClose(t, got, want, 1e-10)
		})
	}
}

func TestIm2ColErrors(t *testing.T) {
	if _, err := Im2Col(New(3, 3), 3, 3, 1, 1, 0, 0); err == nil {
		t.Fatal("expected rank error")
	}
	if _, err := Im2Col(New(1, 2, 2), 5, 5, 1, 1, 0, 0); err == nil {
		t.Fatal("expected empty-output error")
	}
}

// Property: Col2Im is the adjoint of Im2Col, i.e. for all x, y:
// <Im2Col(x), y> == <x, Col2Im(y)>. This is exactly the identity the
// convolution backward pass relies on.
func TestPropertyCol2ImAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 1 + rng.Intn(2)
		h := 3 + rng.Intn(4)
		w := 3 + rng.Intn(4)
		kh, kw := 1+rng.Intn(3), 1+rng.Intn(3)
		sh, sw := 1+rng.Intn(2), 1+rng.Intn(2)
		ph, pw := rng.Intn(2), rng.Intn(2)
		if ConvOutSize(h, kh, sh, ph) <= 0 || ConvOutSize(w, kw, sw, pw) <= 0 {
			return true
		}
		x := RandnTensor(rng, 1, c, h, w)
		cols, err := Im2Col(x, kh, kw, sh, sw, ph, pw)
		if err != nil {
			return false
		}
		y := RandnTensor(rng, 1, cols.Shape...)
		back, err := Col2Im(y, c, h, w, kh, kw, sh, sw, ph, pw)
		if err != nil {
			return false
		}
		lhs, _ := Dot(cols, y)
		rhs, _ := Dot(x, back)
		return math.Abs(lhs-rhs) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// conv3DRef is the direct-loop reference for spatio-temporal
// convolution.
func conv3DRef(x, w *Tensor, oc, kt, kh, kw, st, sh, sw, pt, ph, pw int) *Tensor {
	c, tn, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	ot := ConvOutSize(tn, kt, st, pt)
	oh := ConvOutSize(h, kh, sh, ph)
	ow := ConvOutSize(wd, kw, sw, pw)
	out := New(oc, ot, oh, ow)
	for o := 0; o < oc; o++ {
		for otz := 0; otz < ot; otz++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					for ci := 0; ci < c; ci++ {
						for kti := 0; kti < kt; kti++ {
							for ki := 0; ki < kh; ki++ {
								for kj := 0; kj < kw; kj++ {
									it := otz*st - pt + kti
									iy := oy*sh - ph + ki
									ix := ox*sw - pw + kj
									if it < 0 || it >= tn || iy < 0 || iy >= h || ix < 0 || ix >= wd {
										continue
									}
									widx := ((ci*kt+kti)*kh+ki)*kw + kj
									s += x.At(ci, it, iy, ix) * w.At(o, widx)
								}
							}
						}
					}
					out.Set(s, o, otz, oy, ox)
				}
			}
		}
	}
	return out
}

func TestIm2Col3DMatchesDirectConv(t *testing.T) {
	tests := []struct {
		name                   string
		c, tn, h, w, oc        int
		kt, kh, kw, st, sh, sw int
		pt, ph, pw             int
	}{
		{name: "slowfast-fast-stem", c: 1, tn: 8, h: 6, w: 8, oc: 2,
			kt: 3, kh: 3, kw: 3, st: 1, sh: 2, sw: 2, pt: 1, ph: 1, pw: 1},
		{name: "slow-pathway-spatialonly", c: 2, tn: 4, h: 6, w: 6, oc: 2,
			kt: 1, kh: 3, kw: 3, st: 1, sh: 1, sw: 1, pt: 0, ph: 1, pw: 1},
		{name: "temporal-stride", c: 1, tn: 8, h: 4, w: 4, oc: 1,
			kt: 3, kh: 1, kw: 1, st: 2, sh: 1, sw: 1, pt: 1, ph: 0, pw: 0},
	}
	rng := rand.New(rand.NewSource(11))
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := RandnTensor(rng, 1, tt.c, tt.tn, tt.h, tt.w)
			wt := RandnTensor(rng, 1, tt.oc, tt.c*tt.kt*tt.kh*tt.kw)

			cols, err := Im2Col3D(x, tt.kt, tt.kh, tt.kw, tt.st, tt.sh, tt.sw, tt.pt, tt.ph, tt.pw)
			if err != nil {
				t.Fatal(err)
			}
			prod, err := MatMul(wt, cols)
			if err != nil {
				t.Fatal(err)
			}
			ot := ConvOutSize(tt.tn, tt.kt, tt.st, tt.pt)
			oh := ConvOutSize(tt.h, tt.kh, tt.sh, tt.ph)
			ow := ConvOutSize(tt.w, tt.kw, tt.sw, tt.pw)
			got := prod.MustReshape(tt.oc, ot, oh, ow)
			want := conv3DRef(x, wt, tt.oc, tt.kt, tt.kh, tt.kw, tt.st, tt.sh, tt.sw, tt.pt, tt.ph, tt.pw)
			assertClose(t, got, want, 1e-10)

			direct := New(tt.oc, ot*oh*ow)
			err = Conv3DInto(direct, New(ot*oh*ow, tt.oc), New(wt.Shape[1], tt.oc), x, wt, New(tt.oc),
				1, tt.kt, tt.kh, tt.kw, tt.st, tt.sh, tt.sw, tt.pt, tt.ph, tt.pw)
			if err != nil {
				t.Fatal(err)
			}
			assertClose(t, direct.MustReshape(tt.oc, ot, oh, ow), want, 1e-10)
		})
	}
}

// TestConv3DIntoShapeErrors checks that every mis-shaped operand of the
// direct conv is refused rather than indexed out of range.
func TestConv3DIntoShapeErrors(t *testing.T) {
	// A 3×3×3 kernel, stride 1, padding 1 on a [2,4,4,4] input: 64
	// outputs, 54 weights per output channel, 3 output channels.
	x, w, b := New(2, 4, 4, 4), New(3, 54), New(3)
	out, acc, wt := New(3, 64), New(64, 3), New(54, 3)
	conv := func(out, acc, wt, x, w, b *Tensor) error {
		return Conv3DInto(out, acc, wt, x, w, b, 1, 3, 3, 3, 1, 1, 1, 1, 1, 1)
	}
	if err := conv(out, acc, wt, x, w, b); err != nil {
		t.Fatalf("well-shaped operands refused: %v", err)
	}
	tests := []struct {
		name string
		err  error
	}{
		{"input rank", conv(out, acc, wt, New(2, 4, 4), w, b)},
		{"batch size", conv(out, acc, wt, New(2, 2, 4, 4, 4), w, b)},
		{"kernel larger than input", Conv3DInto(out, acc, wt, x, w, b, 1, 7, 3, 3, 1, 1, 1, 0, 1, 1)},
		{"weights", conv(out, acc, wt, x, New(3, 27), b)},
		{"bias", conv(out, acc, wt, x, w, New(2))},
		{"out", conv(New(64, 3), acc, wt, x, w, b)},
		{"acc", conv(out, New(3, 64), wt, x, w, b)},
		{"wt", conv(out, acc, New(3, 54), x, w, b)},
	}
	for _, tt := range tests {
		if tt.err == nil {
			t.Errorf("%s: mis-shaped operand accepted", tt.name)
		}
	}
}

// Property: Col2Im3D is the adjoint of Im2Col3D.
func TestPropertyCol2Im3DAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 1 + rng.Intn(2)
		tn := 2 + rng.Intn(4)
		h := 3 + rng.Intn(3)
		w := 3 + rng.Intn(3)
		kt, kh, kw := 1+rng.Intn(2), 1+rng.Intn(3), 1+rng.Intn(3)
		st, sh, sw := 1+rng.Intn(2), 1+rng.Intn(2), 1+rng.Intn(2)
		pt, ph, pw := rng.Intn(2), rng.Intn(2), rng.Intn(2)
		if ConvOutSize(tn, kt, st, pt) <= 0 || ConvOutSize(h, kh, sh, ph) <= 0 || ConvOutSize(w, kw, sw, pw) <= 0 {
			return true
		}
		x := RandnTensor(rng, 1, c, tn, h, w)
		cols, err := Im2Col3D(x, kt, kh, kw, st, sh, sw, pt, ph, pw)
		if err != nil {
			return false
		}
		y := RandnTensor(rng, 1, cols.Shape...)
		back, err := Col2Im3D(y, c, tn, h, w, kt, kh, kw, st, sh, sw, pt, ph, pw)
		if err != nil {
			return false
		}
		lhs, _ := Dot(cols, y)
		rhs, _ := Dot(x, back)
		return math.Abs(lhs-rhs) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIm2Col3D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandnTensor(rng, 1, 1, 32, 10, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Im2Col3D(x, 3, 3, 3, 1, 2, 2, 1, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandnTensor(rng, 1, 16, 108)
	y := RandnTensor(rng, 1, 108, 320)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
