package video

import (
	"fmt"
	"math/rand"

	"safecross/internal/nn"
	"safecross/internal/tensor"
)

// TSN is the temporal-segment-network baseline (Wang et al.), the
// second comparison in Table IV: it samples a few snippets from the
// clip, runs a shared 2-D network on each, and averages the snippet
// logits (the "consensus"). Because each snippet is a single static
// frame, TSN sees almost no motion — which is why its mean-class
// accuracy trails the 3-D models on this task, as the paper found.
type TSN struct {
	cfg      SlowFastConfig
	snippets int

	net *nn.Sequential // shared per-snippet 2-D network

	cacheIdx []int
}

var _ Classifier = (*TSN)(nil)

// tsnSnippets is the paper's 1x1x3 sampling: three snippets per clip.
const tsnSnippets = 3

// NewTSN builds a TSN classifier for the given clip geometry.
func NewTSN(cfg SlowFastConfig) (*TSN, error) {
	if cfg.T == 0 {
		cfg = fillSlowFastDefaults(cfg)
	}
	if cfg.T < tsnSnippets {
		return nil, fmt.Errorf("video: tsn needs T ≥ %d, got %d", tsnSnippets, cfg.T)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	oh1 := tensor.ConvOutSize(cfg.H, 3, 2, 1)
	ow1 := tensor.ConvOutSize(cfg.W, 3, 2, 1)
	oh2 := tensor.ConvOutSize(oh1, 3, 2, 1)
	ow2 := tensor.ConvOutSize(ow1, 3, 2, 1)
	net := nn.NewSequential(
		nn.NewConv2D("tsn.conv1", nn.Conv2DConfig{
			InC: 1, OutC: 8, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1,
		}, rng),
		nn.NewReLU(),
		nn.NewConv2D("tsn.conv2", nn.Conv2DConfig{
			InC: 8, OutC: 16, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1,
		}, rng),
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewLinear("tsn.fc", 16*oh2*ow2, cfg.Classes, rng),
	)
	return &TSN{cfg: cfg, snippets: tsnSnippets, net: net}, nil
}

// TSNBuilder returns a Builder producing identically configured TSN
// networks.
func TSNBuilder(cfg SlowFastConfig) Builder {
	return func() (Classifier, error) { return NewTSN(cfg) }
}

// Name returns "tsn".
func (m *TSN) Name() string { return "tsn" }

// snippetIndices spreads the snippets evenly over the clip.
func (m *TSN) snippetIndices() []int {
	idx := make([]int, m.snippets)
	for i := range idx {
		idx[i] = (2*i + 1) * m.cfg.T / (2 * m.snippets)
	}
	return idx
}

// Forward runs the shared network on each snippet frame and averages
// the logits.
func (m *TSN) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Shape[0] != 1 || x.Shape[1] != m.cfg.T {
		return nil, fmt.Errorf("tsn: input shape %v, want [1,%d,H,W]", x.Shape, m.cfg.T)
	}
	h, w := x.Shape[2], x.Shape[3]
	m.cacheIdx = m.snippetIndices()
	var consensus *tensor.Tensor
	for _, ti := range m.cacheIdx {
		frame := tensor.New(1, h, w)
		copy(frame.Data, x.Data[ti*h*w:(ti+1)*h*w])
		logits, err := m.net.Forward(frame)
		if err != nil {
			return nil, fmt.Errorf("tsn snippet t=%d: %w", ti, err)
		}
		if consensus == nil {
			consensus = logits.Clone()
		} else if err := consensus.AddInPlace(logits); err != nil {
			return nil, fmt.Errorf("tsn consensus: %w", err)
		}
	}
	consensus.Scale(1 / float64(m.snippets))
	return consensus, nil
}

// ForwardBatch gathers every snippet frame of every clip into one
// channel-major [1, N·S, H, W] plane stack (clip i's snippet s at
// plane i·S+s), runs the shared 2-D network once, and reduces the
// [N·S, Classes] logit matrix to per-clip consensus logits: snippet
// logits summed in sampling order, then scaled by 1/S — the exact
// arithmetic of the per-clip Forward, so results are bit-identical.
func (m *TSN) ForwardBatch(xs []*tensor.Tensor, ws *nn.Workspace) ([]*tensor.Tensor, error) {
	n := len(xs)
	if n == 0 {
		return nil, fmt.Errorf("tsn: empty batch")
	}
	for i, x := range xs {
		if x.Rank() != 4 || x.Shape[0] != 1 || x.Shape[1] != m.cfg.T {
			return nil, fmt.Errorf("tsn: clip %d shape %v, want [1,%d,H,W]", i, x.Shape, m.cfg.T)
		}
	}
	defer ws.Reset()
	h, w := xs[0].Shape[2], xs[0].Shape[3]
	idx := m.snippetIndices()
	s := len(idx)
	frames := ws.Get(1, n*s, h, w)
	spat := h * w
	for i, x := range xs {
		for si, ti := range idx {
			copy(frames.Data[(i*s+si)*spat:(i*s+si+1)*spat], x.Data[ti*spat:])
		}
	}
	logits, err := m.net.ForwardWS(frames, ws)
	if err != nil {
		return nil, fmt.Errorf("tsn batched snippets: %w", err)
	}
	classes := logits.Shape[1]
	inv := 1 / float64(m.snippets)
	out := make([]*tensor.Tensor, n)
	for i := range out {
		c := tensor.New(classes)
		for si := 0; si < s; si++ {
			row := logits.Data[(i*s+si)*classes:]
			for k := 0; k < classes; k++ {
				c.Data[k] += row[k]
			}
		}
		for k := range c.Data {
			c.Data[k] *= inv
		}
		out[i] = c
	}
	return out, nil
}

// Backward replays each snippet forward (to restore the shared
// network's caches) and accumulates its share of the consensus
// gradient. The clip tensor is not retained by Forward, so Backward
// requires the snippets to be re-run; callers use TrainStep which
// handles the ordering.
//
// Implementation note: because the per-snippet network caches are
// overwritten by each snippet's forward pass, Forward stores the
// snippet indices and Backward reprocesses snippets one at a time:
// forward(snippet) → backward(share). This costs one extra forward
// pass per snippet but keeps the layer API cache-free.
func (m *TSN) Backward(dlogits *tensor.Tensor) error {
	return fmt.Errorf("tsn: use TrainStepTSN (consensus backward needs the clip); Backward alone is unsupported")
}

// lossAndGrad runs one full training step for TSN: forward each
// snippet, average the loss gradient, and backpropagate each
// snippet's share immediately after its forward pass (so the layer
// caches are valid).
func (m *TSN) lossAndGrad(x *tensor.Tensor, label int) (float64, *tensor.Tensor, error) {
	logits, err := m.Forward(x)
	if err != nil {
		return 0, nil, err
	}
	loss, dlogits, err := nn.SoftmaxCrossEntropy(logits, label)
	if err != nil {
		return 0, nil, err
	}
	// Each snippet receives dlogits/snippets.
	share := dlogits.Clone().Scale(1 / float64(m.snippets))
	h, w := x.Shape[2], x.Shape[3]
	for _, ti := range m.cacheIdx {
		frame := tensor.New(1, h, w)
		copy(frame.Data, x.Data[ti*h*w:(ti+1)*h*w])
		if _, err := m.net.Forward(frame); err != nil {
			return 0, nil, fmt.Errorf("tsn replay t=%d: %w", ti, err)
		}
		if _, err := m.net.Backward(share); err != nil {
			return 0, nil, fmt.Errorf("tsn backward t=%d: %w", ti, err)
		}
	}
	return loss, logits, nil
}

// Params returns the shared network's parameters.
func (m *TSN) Params() []*nn.Param { return m.net.Params() }

// SetTrain toggles training behaviour.
func (m *TSN) SetTrain(train bool) { m.net.SetTrain(train) }
