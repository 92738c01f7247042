package video

import (
	"fmt"
	"math/rand"

	"safecross/internal/nn"
	"safecross/internal/tensor"
)

// C3D is the single-pathway 3-D convolutional baseline (Tran et al.),
// the first comparison architecture in the paper's Table IV. Unlike
// SlowFast it treats all frames uniformly at one temporal rate.
//
// The original C3D classifies with an SVM over fc6 features; this
// implementation uses a linear softmax head, which for a binary task
// is the same decision family.
type C3D struct {
	cfg SlowFastConfig // shares the clip geometry fields

	net *nn.Sequential
}

var _ Classifier = (*C3D)(nil)

// NewC3D builds a C3D classifier for the given clip geometry (the T,
// H, W, Classes, Seed fields of the shared config are used).
func NewC3D(cfg SlowFastConfig) (*C3D, error) {
	if cfg.T == 0 {
		cfg = fillSlowFastDefaults(cfg)
	}
	if cfg.T%4 != 0 {
		return nil, fmt.Errorf("video: c3d needs T divisible by 4, got %d", cfg.T)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Compute the head input size from the conv geometry.
	oh1 := tensor.ConvOutSize(cfg.H, 3, 2, 1)
	ow1 := tensor.ConvOutSize(cfg.W, 3, 2, 1)
	oh2 := tensor.ConvOutSize(oh1, 3, 2, 1)
	ow2 := tensor.ConvOutSize(ow1, 3, 2, 1)
	_ = oh2
	_ = ow2
	net := nn.NewSequential(
		nn.NewConv3D("c3d.conv1", nn.Conv3DConfig{
			InC: 1, OutC: 6, KT: 3, KH: 3, KW: 3,
			ST: 1, SH: 2, SW: 2, PT: 1, PH: 1, PW: 1,
		}, rng),
		nn.NewReLU(),
		nn.NewTemporalAvgPool(2),
		nn.NewConv3D("c3d.conv2", nn.Conv3DConfig{
			InC: 6, OutC: 12, KT: 3, KH: 3, KW: 3,
			ST: 2, SH: 2, SW: 2, PT: 1, PH: 1, PW: 1,
		}, rng),
		nn.NewReLU(),
		nn.NewGlobalAvgPool3D(),
		nn.NewLinear("c3d.fc", 12, cfg.Classes, rng),
	)
	return &C3D{cfg: cfg, net: net}, nil
}

// C3DBuilder returns a Builder producing identically configured C3D
// networks.
func C3DBuilder(cfg SlowFastConfig) Builder {
	return func() (Classifier, error) { return NewC3D(cfg) }
}

// Name returns "c3d".
func (m *C3D) Name() string { return "c3d" }

// Forward maps a [1,T,H,W] clip to class logits.
func (m *C3D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Shape[0] != 1 || x.Shape[1] != m.cfg.T {
		return nil, fmt.Errorf("c3d: input shape %v, want [1,%d,H,W]", x.Shape, m.cfg.T)
	}
	out, err := m.net.Forward(x)
	if err != nil {
		return nil, fmt.Errorf("c3d: %w", err)
	}
	return out, nil
}

// ForwardBatch stacks n clips into a channel-major [1,N,T,H,W] tensor
// and runs the whole network once: each conv is one direct
// convolution for the batch, the global pool emits [N,C] and the head [N,Classes].
// Scratch comes from ws; the returned logits are fresh per-clip
// tensors, bit-identical to the eval-mode Forward on each clip.
func (m *C3D) ForwardBatch(xs []*tensor.Tensor, ws *nn.Workspace) ([]*tensor.Tensor, error) {
	n := len(xs)
	if n == 0 {
		return nil, fmt.Errorf("c3d: empty batch")
	}
	for i, x := range xs {
		if x.Rank() != 4 || x.Shape[0] != 1 || x.Shape[1] != m.cfg.T {
			return nil, fmt.Errorf("c3d: clip %d shape %v, want [1,%d,H,W]", i, x.Shape, m.cfg.T)
		}
	}
	defer ws.Reset()
	logits, err := m.net.ForwardWS(stackClips(ws, xs), ws)
	if err != nil {
		return nil, fmt.Errorf("c3d: %w", err)
	}
	return splitLogits(logits, n), nil
}

// Backward accumulates parameter gradients from the logits gradient.
func (m *C3D) Backward(dlogits *tensor.Tensor) error {
	if _, err := m.net.Backward(dlogits); err != nil {
		return fmt.Errorf("c3d: %w", err)
	}
	return nil
}

// Params returns all trainable parameters.
func (m *C3D) Params() []*nn.Param { return m.net.Params() }

// SetTrain toggles training behaviour.
func (m *C3D) SetTrain(train bool) { m.net.SetTrain(train) }
