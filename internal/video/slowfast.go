package video

import (
	"fmt"
	"math/rand"

	"safecross/internal/nn"
	"safecross/internal/tensor"
)

// SlowFastConfig configures the SlowFast network. The defaults follow
// the paper's slowfast_r50_4x16 recipe scaled to occupancy-grid
// inputs: the slow pathway sees T/Alpha frames at full channel
// capacity, the fast pathway sees every frame with a fraction (β) of
// the channels, and lateral connections fuse fast into slow.
type SlowFastConfig struct {
	// T is the clip length (default 32, the paper's segment length).
	T int
	// H and W are the occupancy-grid dimensions (default 10×16).
	H, W int
	// Alpha is the slow-pathway temporal subsampling ratio (default 8:
	// the slow pathway sees 4 of 32 frames, as in the paper).
	Alpha int
	// Classes is the number of output classes (default 2).
	Classes int
	// Lateral enables the fast→slow lateral connections; disabling
	// them is the ablation in bench_test.go.
	Lateral bool
	// Seed initialises the weights.
	Seed int64
}

// DefaultSlowFastConfig returns the configuration used across the
// experiments.
func DefaultSlowFastConfig() SlowFastConfig {
	return SlowFastConfig{T: 32, H: 10, W: 16, Alpha: 8, Classes: 2, Lateral: true}
}

// SlowFast is the two-pathway video classifier (Feichtenhofer et al.,
// adopted by the paper as its basic model). The fast pathway runs on
// every frame with few channels; the slow pathway runs on a temporally
// subsampled clip with more channels; a time-strided lateral
// convolution injects fast features into the slow pathway before a
// fused head classifies.
type SlowFast struct {
	cfg SlowFastConfig

	fast    *nn.Sequential // full-rate pathway
	slow    *nn.Sequential // subsampled pathway
	lateral *nn.Conv3D     // time-strided fast→slow connection
	fuse    *nn.Sequential // post-concat convolution stack
	gapFuse *nn.GlobalAvgPool3D
	gapFast *nn.GlobalAvgPool3D
	headFC  *nn.Linear

	slowCh, latCh, fastCh int

	// Forward caches for the custom backward pass.
	cacheFastOut *tensor.Tensor
}

var _ Classifier = (*SlowFast)(nil)

// Channel widths of the two pathways. The β=1/4 fast/slow channel
// ratio mirrors the paper's lightweight fast pathway.
const (
	slowFastSlowCh = 10
	slowFastFastCh = 6
	slowFastLatCh  = 6
	slowFastFuseCh = 16
)

// NewSlowFast builds a SlowFast classifier for the given
// configuration.
func NewSlowFast(cfg SlowFastConfig) (*SlowFast, error) {
	if cfg.T == 0 {
		cfg = fillSlowFastDefaults(cfg)
	}
	if cfg.T%cfg.Alpha != 0 {
		return nil, fmt.Errorf("video: T=%d not divisible by alpha=%d", cfg.T, cfg.Alpha)
	}
	if cfg.T%2 != 0 {
		return nil, fmt.Errorf("video: T=%d must be even for the fast pathway stride", cfg.T)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	m := &SlowFast{cfg: cfg, slowCh: slowFastSlowCh, latCh: slowFastLatCh, fastCh: slowFastFastCh}

	// Fast pathway: high frame rate, thin channels. The second conv
	// strides time by 2 to keep cost bounded while retaining 2× the
	// slow pathway's temporal resolution at its output.
	m.fast = nn.NewSequential(
		nn.NewConv3D("fast.conv1", nn.Conv3DConfig{
			InC: 1, OutC: 3, KT: 3, KH: 3, KW: 3,
			ST: 1, SH: 2, SW: 2, PT: 1, PH: 1, PW: 1,
		}, rng),
		nn.NewReLU(),
		nn.NewConv3D("fast.conv2", nn.Conv3DConfig{
			InC: 3, OutC: slowFastFastCh, KT: 3, KH: 3, KW: 3,
			ST: 2, SH: 1, SW: 1, PT: 1, PH: 1, PW: 1,
		}, rng),
		nn.NewReLU(),
	)
	// Slow pathway: low frame rate, wide channels, spatial-only
	// kernels in the stem (the paper notes slow stems avoid temporal
	// convolution).
	m.slow = nn.NewSequential(
		nn.NewConv3D("slow.conv1", nn.Conv3DConfig{
			InC: 1, OutC: slowFastSlowCh, KT: 1, KH: 3, KW: 3,
			ST: 1, SH: 2, SW: 2, PT: 0, PH: 1, PW: 1,
		}, rng),
		nn.NewReLU(),
	)
	fuseIn := slowFastSlowCh
	if cfg.Lateral {
		// Fast output has T/2 frames; the lateral conv time-strides by
		// alpha/2 to land on the slow pathway's T/alpha frames.
		m.lateral = nn.NewConv3D("lateral.conv", nn.Conv3DConfig{
			InC: slowFastFastCh, OutC: slowFastLatCh, KT: 3, KH: 1, KW: 1,
			ST: cfg.Alpha / 2, SH: 1, SW: 1, PT: 1, PH: 0, PW: 0,
		}, rng)
		fuseIn += slowFastLatCh
	}
	m.fuse = nn.NewSequential(
		nn.NewConv3D("fuse.conv1", nn.Conv3DConfig{
			InC: fuseIn, OutC: slowFastFuseCh, KT: 3, KH: 3, KW: 3,
			ST: 1, SH: 2, SW: 2, PT: 1, PH: 1, PW: 1,
		}, rng),
		nn.NewReLU(),
	)
	m.gapFuse = nn.NewGlobalAvgPool3D()
	m.gapFast = nn.NewGlobalAvgPool3D()
	m.headFC = nn.NewLinear("head.fc", slowFastFuseCh+slowFastFastCh, cfg.Classes, rng)
	return m, nil
}

func fillSlowFastDefaults(cfg SlowFastConfig) SlowFastConfig {
	d := DefaultSlowFastConfig()
	d.Seed = cfg.Seed
	d.Lateral = cfg.Lateral
	return d
}

// SlowFastBuilder returns a Builder producing identically configured
// SlowFast networks.
func SlowFastBuilder(cfg SlowFastConfig) Builder {
	return func() (Classifier, error) { return NewSlowFast(cfg) }
}

// Name returns "slowfast", or "slowfast-nolateral" for the ablated
// variant.
func (m *SlowFast) Name() string {
	if !m.cfg.Lateral {
		return "slowfast-nolateral"
	}
	return "slowfast"
}

// Config returns the model configuration.
func (m *SlowFast) Config() SlowFastConfig { return m.cfg }

// Forward maps a [1,T,H,W] clip to class logits.
func (m *SlowFast) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Shape[0] != 1 || x.Shape[1] != m.cfg.T {
		return nil, fmt.Errorf("slowfast: input shape %v, want [1,%d,H,W]", x.Shape, m.cfg.T)
	}
	fastOut, err := m.fast.Forward(x)
	if err != nil {
		return nil, fmt.Errorf("slowfast fast pathway: %w", err)
	}
	m.cacheFastOut = fastOut

	xs, err := sampleTemporal(x, m.cfg.Alpha, 0)
	if err != nil {
		return nil, fmt.Errorf("slowfast: %w", err)
	}
	slowOut, err := m.slow.Forward(xs)
	if err != nil {
		return nil, fmt.Errorf("slowfast slow pathway: %w", err)
	}

	fused := slowOut
	if m.cfg.Lateral {
		lat, err := m.lateral.Forward(fastOut)
		if err != nil {
			return nil, fmt.Errorf("slowfast lateral: %w", err)
		}
		fused, err = nn.ConcatChannels4D(slowOut, lat)
		if err != nil {
			return nil, fmt.Errorf("slowfast concat: %w", err)
		}
	}
	fuseOut, err := m.fuse.Forward(fused)
	if err != nil {
		return nil, fmt.Errorf("slowfast fuse: %w", err)
	}
	fuseFeat, err := m.gapFuse.Forward(fuseOut)
	if err != nil {
		return nil, fmt.Errorf("slowfast gap(fuse): %w", err)
	}
	fastFeat, err := m.gapFast.Forward(fastOut)
	if err != nil {
		return nil, fmt.Errorf("slowfast gap(fast): %w", err)
	}
	feat := tensor.New(fuseFeat.Len() + fastFeat.Len())
	copy(feat.Data, fuseFeat.Data)
	copy(feat.Data[fuseFeat.Len():], fastFeat.Data)
	logits, err := m.headFC.Forward(feat)
	if err != nil {
		return nil, fmt.Errorf("slowfast head: %w", err)
	}
	return logits, nil
}

// ForwardBatch runs n clips through one two-pathway pass: the clips
// are stacked into a channel-major [1,N,T,H,W] tensor so each conv
// stage is one im2col + one matmul for the whole batch. Scratch comes
// from ws; the returned logits are fresh per-clip tensors,
// bit-identical to the eval-mode Forward on each clip.
func (m *SlowFast) ForwardBatch(xs []*tensor.Tensor, ws *nn.Workspace) ([]*tensor.Tensor, error) {
	n := len(xs)
	if n == 0 {
		return nil, fmt.Errorf("slowfast: empty batch")
	}
	for i, x := range xs {
		if x.Rank() != 4 || x.Shape[0] != 1 || x.Shape[1] != m.cfg.T {
			return nil, fmt.Errorf("slowfast: clip %d shape %v, want [1,%d,H,W]", i, x.Shape, m.cfg.T)
		}
	}
	defer ws.Reset()

	x := stackClips(ws, xs)
	fastOut, err := m.fast.ForwardWS(x, ws)
	if err != nil {
		return nil, fmt.Errorf("slowfast fast pathway: %w", err)
	}

	xsSlow, err := sampleTemporalBatch(ws, x, m.cfg.Alpha, 0)
	if err != nil {
		return nil, fmt.Errorf("slowfast: %w", err)
	}
	slowOut, err := m.slow.ForwardWS(xsSlow, ws)
	if err != nil {
		return nil, fmt.Errorf("slowfast slow pathway: %w", err)
	}

	fused := slowOut
	if m.cfg.Lateral {
		lat, err := m.lateral.ForwardWS(fastOut, ws)
		if err != nil {
			return nil, fmt.Errorf("slowfast lateral: %w", err)
		}
		fused, err = nn.ConcatChannelsWS(ws, slowOut, lat)
		if err != nil {
			return nil, fmt.Errorf("slowfast concat: %w", err)
		}
	}
	fuseOut, err := m.fuse.ForwardWS(fused, ws)
	if err != nil {
		return nil, fmt.Errorf("slowfast fuse: %w", err)
	}
	fuseFeat, err := m.gapFuse.ForwardWS(fuseOut, ws)
	if err != nil {
		return nil, fmt.Errorf("slowfast gap(fuse): %w", err)
	}
	fastFeat, err := m.gapFast.ForwardWS(fastOut, ws)
	if err != nil {
		return nil, fmt.Errorf("slowfast gap(fast): %w", err)
	}
	// Per-sample feature concatenation [N, fuseCh+fastCh], fuse block
	// first — the same order the single-clip head sees.
	fuseCh, fastCh := fuseFeat.Shape[1], fastFeat.Shape[1]
	feat := ws.Get(n, fuseCh+fastCh)
	for i := 0; i < n; i++ {
		row := feat.Data[i*(fuseCh+fastCh):]
		copy(row[:fuseCh], fuseFeat.Data[i*fuseCh:])
		copy(row[fuseCh:fuseCh+fastCh], fastFeat.Data[i*fastCh:])
	}
	logits, err := m.headFC.ForwardWS(feat, ws)
	if err != nil {
		return nil, fmt.Errorf("slowfast head: %w", err)
	}
	return splitLogits(logits, n), nil
}

// Backward propagates the logits gradient through head, both
// pathways, and the lateral connection, accumulating parameter
// gradients.
func (m *SlowFast) Backward(dlogits *tensor.Tensor) error {
	if m.cacheFastOut == nil {
		return fmt.Errorf("slowfast: Backward before Forward")
	}
	dfeat, err := m.headFC.Backward(dlogits)
	if err != nil {
		return fmt.Errorf("slowfast head: %w", err)
	}
	dfuseFeat := tensor.New(slowFastFuseCh)
	copy(dfuseFeat.Data, dfeat.Data[:slowFastFuseCh])
	dfastFeat := tensor.New(slowFastFastCh)
	copy(dfastFeat.Data, dfeat.Data[slowFastFuseCh:])

	dfuseOut, err := m.gapFuse.Backward(dfuseFeat)
	if err != nil {
		return fmt.Errorf("slowfast gap(fuse): %w", err)
	}
	dfused, err := m.fuse.Backward(dfuseOut)
	if err != nil {
		return fmt.Errorf("slowfast fuse: %w", err)
	}

	// Fast pathway receives gradient from its direct GAP feature and,
	// when lateral connections are on, from the lateral branch.
	dfastOut, err := m.gapFast.Backward(dfastFeat)
	if err != nil {
		return fmt.Errorf("slowfast gap(fast): %w", err)
	}
	var dslowOut *tensor.Tensor
	if m.cfg.Lateral {
		ds, dlat, err := nn.SplitChannels4D(dfused, m.slowCh)
		if err != nil {
			return fmt.Errorf("slowfast split: %w", err)
		}
		dslowOut = ds
		dfastFromLat, err := m.lateral.Backward(dlat)
		if err != nil {
			return fmt.Errorf("slowfast lateral: %w", err)
		}
		if err := dfastOut.AddInPlace(dfastFromLat); err != nil {
			return fmt.Errorf("slowfast fast-grad merge: %w", err)
		}
	} else {
		dslowOut = dfused
	}

	dxs, err := m.slow.Backward(dslowOut)
	if err != nil {
		return fmt.Errorf("slowfast slow pathway: %w", err)
	}
	// The input gradient from the slow pathway scatters back to the
	// sampled frame indices; we do not propagate input gradients to
	// callers (inputs are data), but the scatter validates shapes.
	if _, err := scatterTemporal(dxs, m.cfg.T, m.cfg.Alpha, 0); err != nil {
		return fmt.Errorf("slowfast: %w", err)
	}
	if _, err := m.fast.Backward(dfastOut); err != nil {
		return fmt.Errorf("slowfast fast pathway: %w", err)
	}
	return nil
}

// Params returns all trainable parameters of both pathways, the
// lateral connection (if enabled), the fused head, and the classifier.
func (m *SlowFast) Params() []*nn.Param {
	ps := append([]*nn.Param(nil), m.fast.Params()...)
	ps = append(ps, m.slow.Params()...)
	if m.cfg.Lateral {
		ps = append(ps, m.lateral.Params()...)
	}
	ps = append(ps, m.fuse.Params()...)
	ps = append(ps, m.headFC.Params()...)
	return ps
}

// SetTrain toggles training behaviour on all train-aware layers,
// including the lateral connection: in eval mode the convs drop their
// im2col caches, so a serving replica stops pinning column matrices.
func (m *SlowFast) SetTrain(train bool) {
	m.fast.SetTrain(train)
	m.slow.SetTrain(train)
	if m.lateral != nil {
		m.lateral.SetTrain(train)
	}
	m.fuse.SetTrain(train)
}
