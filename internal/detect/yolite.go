package detect

import (
	"fmt"
	"math"
	"math/rand"

	"safecross/internal/nn"
	"safecross/internal/tensor"
	"safecross/internal/vision"
)

// Yolite is a YOLO-style single-shot grid detector: a small
// convolutional network scores every stride×stride cell of the frame
// for vehicle presence, and adjacent positive cells are merged into
// boxes. Like the YOLOv3 baseline in the paper, it is trained on
// clean, near-field imagery; on far-away low-contrast vehicles seen
// through a noisy camera its confidence collapses below threshold
// (Fig. 8(d)), and its full-frame convolutions make it the slowest
// method in Table II.
type Yolite struct {
	net *nn.Sequential
	// Threshold is the objectness acceptance level, calibrated on the
	// training distribution for high precision.
	Threshold float64
	// stride is the output-cell size in input pixels.
	stride int
	// minCells is the minimum number of positive cells per detection.
	minCells int

	// ws and mask are Detect's private eval scratch: the score path
	// draws every buffer from ws and the cell mask is reused across
	// frames, so steady-state detection allocates nothing per frame.
	// They make Detect single-goroutine, which it already was — the
	// train-mode forward caches shared layer state too.
	ws   *nn.Workspace
	mask *vision.Image
}

var _ Detector = (*Yolite)(nil)

// yoliteStride is fixed by the two stride-2 convolutions.
const yoliteStride = 4

// NewYolite builds an untrained detector (weights from rng).
func NewYolite(rng *rand.Rand) *Yolite {
	// A full-resolution stem plus three downsampling-free and
	// downsampling stages: deep enough to be the slowest method in
	// Table II, like the full YOLOv3 backbone is on a CPU.
	net := nn.NewSequential()
	for i, c := range yoliteConvs {
		if i > 0 {
			net.Append(nn.NewReLU())
		}
		net.Append(nn.NewConv2D(c.name, c.cfg, rng))
	}
	return &Yolite{net: net, Threshold: 0.5, stride: yoliteStride, minCells: 2}
}

// yoliteConvs is the grid CNN's convolution stack, a ReLU between
// consecutive convolutions.
var yoliteConvs = []struct {
	name string
	cfg  nn.Conv2DConfig
}{
	{"yolite.stem", nn.Conv2DConfig{InC: 1, OutC: 32, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}},
	{"yolite.conv1", nn.Conv2DConfig{InC: 32, OutC: 56, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}},
	{"yolite.conv2", nn.Conv2DConfig{InC: 56, OutC: 56, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}},
	{"yolite.head", nn.Conv2DConfig{InC: 56, OutC: 1, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}},
}

// Flops counts one Detect on a w×h frame: a multiply and an add per
// weight per output position of every convolution. Bias, ReLU and the
// sigmoid are one operation a position and left out.
func (d *Yolite) Flops(w, h int) int64 {
	var total int64
	for _, c := range yoliteConvs {
		k := c.cfg
		h = (h+2*k.PH-k.KH)/k.SH + 1
		w = (w+2*k.PW-k.KW)/k.SW + 1
		total += 2 * int64(k.OutC*k.InC*k.KH*k.KW) * int64(h*w)
	}
	return total
}

// Name returns "yolite".
func (d *Yolite) Name() string { return "yolite" }

// Params exposes the network parameters (for persistence).
func (d *Yolite) Params() []*nn.Param { return d.net.Params() }

// SetTrain toggles the grid CNN between its cache-writing training
// forward and the stateless eval forward.
func (d *Yolite) SetTrain(train bool) { d.net.SetTrain(train) }

// Forward runs the grid CNN on one [1,H,W] frame tensor and returns
// the raw cell logits [1,GH,GW] — the allocating reference path the
// workspace variants are tested bit-identical against.
func (d *Yolite) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	logits, err := d.net.Forward(x)
	if err != nil {
		return nil, fmt.Errorf("detect: yolite: %w", err)
	}
	return logits, nil
}

// ForwardWS is the eval forward through workspace scratch: it accepts
// one [1,H,W] frame tensor or a channel-major [1,N,H,W] frame batch
// (batch axis second), returning cell logits of matching rank,
// bit-identical to Forward. The result is a workspace buffer — valid
// until ws is reset, owned by the calling goroutine.
func (d *Yolite) ForwardWS(x *tensor.Tensor, ws *nn.Workspace) (*tensor.Tensor, error) {
	logits, err := d.net.ForwardWS(x, ws)
	if err != nil {
		return nil, fmt.Errorf("detect: yolite: %w", err)
	}
	return logits, nil
}

// ScoreMapWS scores one frame through the workspace eval path: the frame
// copy, every conv scratch buffer, and the sigmoid objectness map all
// land in ws, so a warm caller's per-frame score path allocates
// nothing. The returned [1,GH,GW] map (cells of stride×stride pixels)
// is valid until ws is reset.
func (d *Yolite) ScoreMapWS(frame *vision.Image, ws *nn.Workspace) (*tensor.Tensor, error) {
	x := ws.Get(1, frame.H, frame.W)
	copy(x.Data, frame.Pix)
	logits, err := d.ForwardWS(x, ws)
	if err != nil {
		return nil, err
	}
	for i, z := range logits.Data {
		logits.Data[i] = 1 / (1 + math.Exp(-z))
	}
	return logits, nil
}

// Detect scores the final frame and boxes groups of positive cells.
// The score path runs through the detector's private workspace and
// the cell mask is reused, so a warm detector's per-frame eval
// allocates only the returned rects. Not safe for concurrent use.
func (d *Yolite) Detect(frames []*vision.Image) ([]vision.Rect, error) {
	if err := minSequence(frames, 1); err != nil {
		return nil, err
	}
	frame := frames[len(frames)-1]
	if d.ws == nil {
		d.ws = nn.NewWorkspace()
	}
	defer d.ws.Reset()
	d.net.SetTrain(false)
	probs, err := d.ScoreMapWS(frame, d.ws)
	if err != nil {
		return nil, err
	}
	gh, gw := probs.Shape[1], probs.Shape[2]
	if d.mask == nil || d.mask.W != gw || d.mask.H != gh {
		d.mask = vision.NewImage(gw, gh)
	} else {
		d.mask.Fill(0)
	}
	for y := 0; y < gh; y++ {
		for x := 0; x < gw; x++ {
			if probs.At(0, y, x) >= d.Threshold {
				d.mask.Set(x, y, 1)
			}
		}
	}
	blobs := vision.ConnectedComponents(d.mask, d.minCells)
	rects := make([]vision.Rect, 0, len(blobs))
	for _, b := range blobs {
		rects = append(rects, vision.Rect{
			X0: b.Bounds.X0 * d.stride, Y0: b.Bounds.Y0 * d.stride,
			X1: b.Bounds.X1 * d.stride, Y1: b.Bounds.Y1 * d.stride,
		})
	}
	return rects, nil
}

// yoliteSample is one training frame with its cell-level target map.
type yoliteSample struct {
	frame  *vision.Image
	target *tensor.Tensor // [1, H/stride, W/stride]
}

// synthNearFieldSample renders a clean near-field training image:
// bright, large vehicles on an even road — the training distribution
// the detector later fails to generalise from.
func synthNearFieldSample(rng *rand.Rand, w, h, stride int) yoliteSample {
	im := vision.NewImage(w, h)
	im.Fill(0.33)
	// A lane marking for realism.
	for x := 0; x < w; x += 8 {
		im.FillRect(x, h/2, x+4, h/2+1, 0.6)
	}
	gh, gw := h/stride, w/stride
	target := tensor.New(1, gh, gw)
	nVeh := rng.Intn(3) // 0–2 vehicles; empties teach the negative class
	for v := 0; v < nVeh; v++ {
		vl := 14 + rng.Intn(7) // near-field scale: 14–20 px long
		vw := 6 + rng.Intn(3)
		x0 := rng.Intn(w - vl)
		y0 := rng.Intn(h - vw)
		im.FillRect(x0, y0, x0+vl, y0+vw, 0.82+0.12*rng.Float64())
		for gy := 0; gy < gh; gy++ {
			for gx := 0; gx < gw; gx++ {
				cx := gx*stride + stride/2
				cy := gy*stride + stride/2
				if cx >= x0 && cx < x0+vl && cy >= y0 && cy < y0+vw {
					target.Set(1, 0, gy, gx)
				}
			}
		}
	}
	return yoliteSample{frame: im, target: target}
}

// TrainYolite fits the detector on synthetic clean near-field frames
// with per-cell logistic loss and returns the ready detector.
func TrainYolite(seed int64, epochs int) (*Yolite, error) {
	if epochs <= 0 {
		return nil, fmt.Errorf("detect: yolite epochs %d must be positive", epochs)
	}
	rng := rand.New(rand.NewSource(seed))
	d := NewYolite(rng)
	const (
		trainW, trainH = 48, 32
		nSamples       = 20
	)
	samples := make([]yoliteSample, nSamples)
	for i := range samples {
		samples[i] = synthNearFieldSample(rng, trainW, trainH, d.stride)
	}
	opt := nn.NewAdam(0.01)
	params := d.net.Params()
	d.net.SetTrain(true)
	defer d.net.SetTrain(false)
	for e := 0; e < epochs; e++ {
		for _, s := range samples {
			nn.ZeroGrad(params)
			x := tensor.New(1, s.frame.H, s.frame.W)
			copy(x.Data, s.frame.Pix)
			logits, err := d.net.Forward(x)
			if err != nil {
				return nil, fmt.Errorf("detect: yolite train: %w", err)
			}
			// Per-cell logistic loss gradient: sigmoid(z) − target.
			grad := tensor.New(logits.Shape...)
			n := float64(logits.Len())
			for i, z := range logits.Data {
				p := 1 / (1 + math.Exp(-z))
				grad.Data[i] = (p - s.target.Data[i]) / n
			}
			if _, err := d.net.Backward(grad); err != nil {
				return nil, fmt.Errorf("detect: yolite train: %w", err)
			}
			if err := opt.Step(params); err != nil {
				return nil, fmt.Errorf("detect: yolite train: %w", err)
			}
		}
	}
	return d, nil
}
