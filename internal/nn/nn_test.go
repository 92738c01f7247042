package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"safecross/internal/tensor"
)

func TestParamCountAndZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewSequential(
		NewLinear("a", 4, 3, rng),
		NewReLU(),
		NewLinear("b", 3, 2, rng),
	)
	want := 4*3 + 3 + 3*2 + 2
	if got := ParamCount(net.Params()); got != want {
		t.Fatalf("ParamCount = %d, want %d", got, want)
	}
	for _, p := range net.Params() {
		p.Grad.Fill(5)
	}
	ZeroGrad(net.Params())
	for _, p := range net.Params() {
		if p.Grad.Sum() != 0 {
			t.Fatalf("ZeroGrad left %q non-zero", p.Name)
		}
	}
}

func TestCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewLinear("fc", 3, 2, rng)
	b := NewLinear("fc", 3, 2, rng)
	if err := CopyParams(b.Params(), a.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range a.Params() {
		q := b.Params()[i]
		for j := range p.Value.Data {
			if p.Value.Data[j] != q.Value.Data[j] {
				t.Fatalf("param %q not copied", p.Name)
			}
		}
	}
	c := NewLinear("fc", 4, 2, rng)
	if err := CopyParams(c.Params(), a.Params()); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", tensor.New(2))
	p.Grad.Data[0] = 3
	p.Grad.Data[1] = 4
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	if after := p.Grad.Norm2(); math.Abs(after-1) > 1e-12 {
		t.Fatalf("post-clip norm = %v, want 1", after)
	}
	// Disabled clipping leaves gradients alone.
	p.Grad.Data[0], p.Grad.Data[1] = 3, 4
	ClipGradNorm([]*Param{p}, 0)
	if p.Grad.Norm2() != 5 {
		t.Fatal("maxNorm<=0 must not clip")
	}
}

func TestSequentialSetTrainPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewSequential(
		NewConv2D("c", Conv2DConfig{InC: 1, OutC: 2, KH: 3, KW: 3, PH: 1, PW: 1}, rng),
		NewReLU(),
	)
	x := tensor.RandnTensor(rng, 1, 1, 4, 4)
	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Backward(tensor.Full(1, out.Shape...)); err != nil {
		t.Fatalf("train-mode Backward: %v", err)
	}
	net.SetTrain(false)
	if out, err = net.Forward(x); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Backward(tensor.Full(1, out.Shape...)); err == nil {
		t.Fatal("SetTrain(false) did not reach the conv: Backward still had a cache")
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := tensor.RandnTensor(rng, 1, 2, 3, 4, 5)
	b := tensor.RandnTensor(rng, 1, 3, 3, 4, 5)
	cat, err := ConcatChannels4D(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Shape[0] != 5 {
		t.Fatalf("concat channels = %d, want 5", cat.Shape[0])
	}
	a2, b2, err := SplitChannels4D(cat, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != a2.Data[i] {
			t.Fatal("split did not recover first part")
		}
	}
	for i := range b.Data {
		if b.Data[i] != b2.Data[i] {
			t.Fatal("split did not recover second part")
		}
	}
}

func TestConcatShapeErrors(t *testing.T) {
	a := tensor.New(2, 3, 4, 5)
	b := tensor.New(2, 3, 4, 6)
	if _, err := ConcatChannels4D(a, b); err == nil {
		t.Fatal("expected dim-mismatch error")
	}
	if _, _, err := SplitChannels4D(a, 2); err == nil {
		t.Fatal("expected split-point error")
	}
}

func TestStateSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := NewSequential(
		NewConv2D("c", Conv2DConfig{InC: 1, OutC: 2, KH: 3, KW: 3, PH: 1, PW: 1}, rng),
		NewFlatten(),
		NewLinear("fc", 2*4*4, 2, rng),
	)
	var buf bytes.Buffer
	if err := SaveState(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}

	dst := NewSequential(
		NewConv2D("c", Conv2DConfig{InC: 1, OutC: 2, KH: 3, KW: 3, PH: 1, PW: 1}, rng),
		NewFlatten(),
		NewLinear("fc", 2*4*4, 2, rng),
	)
	if err := LoadState(&buf, dst.Params()); err != nil {
		t.Fatal(err)
	}
	x := tensor.RandnTensor(rng, 1, 1, 4, 4)
	y1, err := src.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := dst.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("loaded network does not reproduce outputs")
		}
	}
}

func TestLoadStateRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := NewLinear("fc", 3, 2, rng)
	var buf bytes.Buffer
	if err := SaveState(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	other := NewLinear("other", 3, 2, rng)
	if err := LoadState(&buf, other.Params()); err == nil {
		t.Fatal("expected missing-name error")
	}
	big := NewLinear("fc", 4, 2, rng)
	var buf2 bytes.Buffer
	if err := SaveState(&buf2, src.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadState(&buf2, big.Params()); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

func TestSaveStateRejectsDuplicateNames(t *testing.T) {
	p := NewParam("dup", tensor.New(1))
	q := NewParam("dup", tensor.New(1))
	var buf bytes.Buffer
	if err := SaveState(&buf, []*Param{p, q}); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestConfusionMatrixMetrics(t *testing.T) {
	cm := NewConfusionMatrix(2)
	// Class 0: 9 right, 1 wrong. Class 1: 1 right, 1 wrong.
	for i := 0; i < 9; i++ {
		if err := cm.Add(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd := func(truth, pred int) {
		t.Helper()
		if err := cm.Add(truth, pred); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 1)
	mustAdd(1, 1)
	mustAdd(1, 0)
	if got := cm.Top1(); math.Abs(got-10.0/12) > 1e-12 {
		t.Fatalf("Top1 = %v, want %v", got, 10.0/12)
	}
	want := (0.9 + 0.5) / 2
	if got := cm.MeanClass(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanClass = %v, want %v", got, want)
	}
	if cm.Total() != 12 {
		t.Fatalf("Total = %d, want 12", cm.Total())
	}
	if err := cm.Add(2, 0); err == nil {
		t.Fatal("expected range error")
	}
}

func TestCrossEntropyErrors(t *testing.T) {
	if _, _, err := SoftmaxCrossEntropy(tensor.New(2, 2), 0); err == nil {
		t.Fatal("expected rank error")
	}
	if _, _, err := SoftmaxCrossEntropy(tensor.New(3), 3); err == nil {
		t.Fatal("expected label-range error")
	}
}

// Property: cross-entropy loss is non-negative and its gradient sums
// to zero (softmax minus one-hot).
func TestPropertyCrossEntropy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(6)
		logits := tensor.RandnTensor(rng, 2, k)
		label := rng.Intn(k)
		loss, grad, err := SoftmaxCrossEntropy(logits, label)
		if err != nil {
			return false
		}
		return loss >= 0 && math.Abs(grad.Sum()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTrainingConvergesOnToyProblem trains a small MLP on a linearly
// separable 2-D problem and requires near-perfect accuracy, smoke-
// testing the full forward/backward/optimize loop.
func TestTrainingConvergesOnToyProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewSequential(
		NewLinear("h", 2, 8, rng),
		NewReLU(),
		NewLinear("o", 8, 2, rng),
	)
	opt := NewAdam(0.05)

	sample := func() (*tensor.Tensor, int) {
		x := tensor.RandnTensor(rng, 1, 2)
		label := 0
		if x.Data[0]+x.Data[1] > 0 {
			label = 1
		}
		return x, label
	}

	for step := 0; step < 400; step++ {
		ZeroGrad(net.Params())
		x, label := sample()
		logits, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		_, dlogits, err := SoftmaxCrossEntropy(logits, label)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Backward(dlogits); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(net.Params()); err != nil {
			t.Fatal(err)
		}
	}

	correct := 0
	const n = 200
	for i := 0; i < n; i++ {
		x, label := sample()
		logits, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		if Predict(logits) == label {
			correct++
		}
	}
	if acc := float64(correct) / n; acc < 0.93 {
		t.Fatalf("toy training accuracy = %v, want ≥0.93", acc)
	}
}

// TestSGDMomentumMatchesManualUpdate checks the SGD update rule on a
// single scalar parameter against a hand-computed trajectory.
func TestSGDMomentumMatchesManualUpdate(t *testing.T) {
	p := NewParam("w", tensor.MustFromSlice([]float64{1}, 1))
	opt := NewSGD(0.1, 0.9, 0)

	p.Grad.Data[0] = 1
	if err := opt.Step([]*Param{p}); err != nil {
		t.Fatal(err)
	}
	// v1 = 1, w = 1 - 0.1*1 = 0.9
	if math.Abs(p.Value.Data[0]-0.9) > 1e-12 {
		t.Fatalf("after step1 w = %v, want 0.9", p.Value.Data[0])
	}
	p.Grad.Data[0] = 1
	if err := opt.Step([]*Param{p}); err != nil {
		t.Fatal(err)
	}
	// v2 = 0.9*1 + 1 = 1.9, w = 0.9 - 0.19 = 0.71
	if math.Abs(p.Value.Data[0]-0.71) > 1e-12 {
		t.Fatalf("after step2 w = %v, want 0.71", p.Value.Data[0])
	}
}

// TestAdamReducesLossOnQuadratic checks Adam minimises a simple
// quadratic f(w) = (w-3)².
func TestAdamReducesLossOnQuadratic(t *testing.T) {
	p := NewParam("w", tensor.MustFromSlice([]float64{0}, 1))
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad.Data[0] = 2 * (p.Value.Data[0] - 3)
		if err := opt.Step([]*Param{p}); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(p.Value.Data[0]-3) > 0.05 {
		t.Fatalf("Adam converged to %v, want ≈3", p.Value.Data[0])
	}
}

// TestWeightDecayShrinksWeights verifies L2 decay pulls an otherwise
// gradient-free parameter toward zero.
func TestWeightDecayShrinksWeights(t *testing.T) {
	p := NewParam("w", tensor.MustFromSlice([]float64{10}, 1))
	opt := NewSGD(0.1, 0, 0.5)
	for i := 0; i < 10; i++ {
		ZeroGrad([]*Param{p})
		if err := opt.Step([]*Param{p}); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(p.Value.Data[0]) >= 10 {
		t.Fatalf("weight decay did not shrink weight: %v", p.Value.Data[0])
	}
}

func TestSoftmaxCrossEntropySmoothed(t *testing.T) {
	logits := tensor.MustFromSlice([]float64{2, -1, 0.5}, 3)
	lossPlain, gradPlain, err := SoftmaxCrossEntropy(logits, 0)
	if err != nil {
		t.Fatal(err)
	}
	lossSmooth, gradSmooth, err := SoftmaxCrossEntropySmoothed(logits, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Smoothing increases the loss for a confident correct prediction.
	if lossSmooth <= lossPlain {
		t.Fatalf("smoothed loss %v should exceed plain %v here", lossSmooth, lossPlain)
	}
	// Both gradients sum to zero (softmax minus a distribution).
	if math.Abs(gradPlain.Sum()) > 1e-9 || math.Abs(gradSmooth.Sum()) > 1e-9 {
		t.Fatal("loss gradients must sum to zero")
	}
	// eps=0 degenerates to the plain loss.
	l0, _, err := SoftmaxCrossEntropySmoothed(logits, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l0 != lossPlain {
		t.Fatalf("eps=0 loss %v != plain %v", l0, lossPlain)
	}
	if _, _, err := SoftmaxCrossEntropySmoothed(logits, 0, 1); err == nil {
		t.Fatal("expected eps-range error")
	}
	if _, _, err := SoftmaxCrossEntropySmoothed(logits, 5, 0.1); err == nil {
		t.Fatal("expected label-range error")
	}
}

// TestSmoothedLossGradientFiniteDiff validates the smoothed loss
// gradient numerically.
func TestSmoothedLossGradientFiniteDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	logits := tensor.RandnTensor(rng, 1, 4)
	const eps = 1e-6
	_, grad, err := SoftmaxCrossEntropySmoothed(logits, 2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _, _ := SoftmaxCrossEntropySmoothed(logits, 2, 0.2)
		logits.Data[i] = orig - eps
		lm, _, _ := SoftmaxCrossEntropySmoothed(logits, 2, 0.2)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[i]) > 1e-6 {
			t.Fatalf("grad[%d]: analytic %v numeric %v", i, grad.Data[i], num)
		}
	}
}
