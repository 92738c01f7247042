package nn

import (
	"math"
	"math/rand"
	"testing"

	"safecross/internal/tensor"
)

// lossOf runs a forward pass and returns the weighted sum of the
// output, a scalar loss whose gradient with respect to the output is
// exactly the weight tensor.
func lossOf(t *testing.T, l Layer, x, wout *tensor.Tensor) float64 {
	t.Helper()
	out, err := l.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tensor.Dot(out, wout)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// gradCheck verifies a layer's backward pass against central finite
// differences on both the input and every parameter.
func gradCheck(t *testing.T, l Layer, x *tensor.Tensor, outLen int, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	wout := tensor.RandnTensor(rng, 1, outLen)

	// Analytic gradients.
	out, err := l.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != outLen {
		t.Fatalf("output length %d, want %d", out.Len(), outLen)
	}
	ZeroGrad(l.Params())
	dx, err := l.Backward(wout.MustReshape(out.Shape...))
	if err != nil {
		t.Fatal(err)
	}

	const eps = 1e-5
	// Input gradient.
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := lossOf(t, l, x, wout)
		x.Data[i] = orig - eps
		lm := lossOf(t, l, x, wout)
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx.Data[i]) > tol {
			t.Fatalf("input grad[%d]: analytic %v, numeric %v", i, dx.Data[i], num)
		}
	}
	// Parameter gradients.
	for _, p := range l.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossOf(t, l, x, wout)
			p.Value.Data[i] = orig - eps
			lm := lossOf(t, l, x, wout)
			p.Value.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.Grad.Data[i]) > tol {
				t.Fatalf("param %s grad[%d]: analytic %v, numeric %v", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

func TestGradCheckLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("fc", 5, 3, rng)
	x := tensor.RandnTensor(rng, 1, 5)
	gradCheck(t, l, x, 3, 1e-6)
}

func TestGradCheckConv2D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewConv2D("c", Conv2DConfig{InC: 2, OutC: 3, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}, rng)
	x := tensor.RandnTensor(rng, 1, 2, 6, 6)
	out := tensor.ConvOutSize(6, 3, 2, 1)
	gradCheck(t, l, x, 3*out*out, 1e-6)
}

func TestGradCheckConv3D(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewConv3D("c3", Conv3DConfig{
		InC: 1, OutC: 2, KT: 3, KH: 3, KW: 3,
		ST: 1, SH: 2, SW: 2, PT: 1, PH: 1, PW: 1,
	}, rng)
	x := tensor.RandnTensor(rng, 1, 1, 4, 6, 6)
	ot := tensor.ConvOutSize(4, 3, 1, 1)
	oh := tensor.ConvOutSize(6, 3, 2, 1)
	gradCheck(t, l, x, 2*ot*oh*oh, 1e-6)
}

func TestGradCheckReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.RandnTensor(rng, 1, 12)
	// Nudge values away from 0 where ReLU is non-differentiable.
	for i, v := range x.Data {
		if math.Abs(v) < 0.05 {
			x.Data[i] = 0.1
		}
	}
	gradCheck(t, NewReLU(), x, 12, 1e-6)
}

func TestGradCheckGlobalAvgPool3D(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.RandnTensor(rng, 1, 3, 2, 4, 4)
	gradCheck(t, NewGlobalAvgPool3D(), x, 3, 1e-6)
}

func TestGradCheckTemporalAvgPool(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := tensor.RandnTensor(rng, 1, 2, 8, 3, 3)
	gradCheck(t, NewTemporalAvgPool(4), x, 2*2*3*3, 1e-6)
}

func TestGradCheckSequentialChain(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewSequential(
		NewConv2D("c1", Conv2DConfig{InC: 1, OutC: 2, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}, rng),
		NewReLU(),
		NewFlatten(),
		NewLinear("fc", 2*6*6, 2, rng),
	)
	x := tensor.RandnTensor(rng, 1, 1, 6, 6)
	gradCheck(t, net, x, 2, 1e-5)
}

// TestGradCheckCrossEntropy verifies the loss gradient against finite
// differences through the full softmax cross-entropy.
func TestGradCheckCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	logits := tensor.RandnTensor(rng, 1, 4)
	label := 2
	_, grad, err := SoftmaxCrossEntropy(logits, label)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _, _ := SoftmaxCrossEntropy(logits, label)
		logits.Data[i] = orig - eps
		lm, _, _ := SoftmaxCrossEntropy(logits, label)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[i]) > 1e-6 {
			t.Fatalf("loss grad[%d]: analytic %v, numeric %v", i, grad.Data[i], num)
		}
	}
}
