package vision

import (
	"fmt"

	"safecross/internal/tensor"
)

// OccupancyGrid reduces a binary mask restricted to a region of
// interest into a gh×gw grid of cell occupancy fractions in [0, 1].
// This is the paper's Fig. 3(c) step: mapping detected movers into a
// compact 2-D representation of the intersection so the classifier
// has far fewer parameters to learn.
func OccupancyGrid(mask *Image, roi Rect, gw, gh int) (*Image, error) {
	roi, err := gridROI(roi, mask.W, mask.H, gw, gh)
	if err != nil {
		return nil, err
	}
	out := NewImage(gw, gh)
	newMask(mask).occupancy(out, roi)
	return out, nil
}

// gridROI validates the grid dimensions and clips roi to a w×h image.
func gridROI(roi Rect, w, h, gw, gh int) (Rect, error) {
	if gw <= 0 || gh <= 0 {
		return Rect{}, fmt.Errorf("vision: occupancy grid %dx%d must be positive", gw, gh)
	}
	roi = roi.Intersect(Rect{X0: 0, Y0: 0, X1: w, Y1: h})
	if roi.Empty() {
		return Rect{}, fmt.Errorf("vision: ROI outside image bounds")
	}
	return roi, nil
}

// occupancy writes into every cell of dst the fraction of set pixels
// among the mask pixels the cell covers inside roi (already clipped to
// the mask). Cell edges are the truncated multiples of the fractional
// cell size; a cell narrower than a pixel still covers one.
func (m *mask) occupancy(dst *Image, roi Rect) {
	gw, gh := dst.W, dst.H
	cellW := float64(roi.Width()) / float64(gw)
	cellH := float64(roi.Height()) / float64(gh)
	for gy := 0; gy < gh; gy++ {
		y0 := roi.Y0 + int(float64(gy)*cellH)
		y1 := roi.Y0 + int(float64(gy+1)*cellH)
		if y1 <= y0 {
			y1 = y0 + 1
		}
		y1 = minInt(y1, roi.Y1)
		for gx := 0; gx < gw; gx++ {
			x0 := roi.X0 + int(float64(gx)*cellW)
			x1 := roi.X0 + int(float64(gx+1)*cellW)
			if x1 <= x0 {
				x1 = x0 + 1
			}
			x1 = minInt(x1, roi.X1)
			// x0 < roi.X1 and y0 < roi.Y1 for every cell, so each
			// covers at least one pixel.
			on := 0
			for y := y0; y < y1; y++ {
				for _, b := range m.pix[y*m.w+x0 : y*m.w+x1] {
					on += int(b)
				}
			}
			dst.Pix[gy*gw+gx] = float64(on) / float64((x1-x0)*(y1-y0))
		}
	}
}

// VPConfig configures a Preprocessor.
type VPConfig struct {
	// Alpha is the dynamic-background learning rate.
	Alpha float64
	// Threshold is the foreground binarisation level.
	Threshold float64
	// OpenRadius is the structuring-element radius for morphological
	// opening; 0 disables opening.
	OpenRadius int
	// ROI restricts processing to the camera region covering the
	// intersection approach (the paper crops "the middle to the upper
	// right corner"). An empty ROI means the whole frame.
	ROI Rect
	// GridW and GridH are the occupancy-grid dimensions fed to the
	// classifier.
	GridW, GridH int
}

// DefaultVPConfig returns the configuration used throughout the
// experiments: a 16×10 occupancy grid, light morphology, and a
// slowly adapting background.
func DefaultVPConfig() VPConfig {
	return VPConfig{
		Alpha:      0.05,
		Threshold:  0.12,
		OpenRadius: 1,
		GridW:      16,
		GridH:      10,
	}
}

// Preprocessor is the VP module: it turns raw camera frames into
// occupancy grids via dynamic background subtraction, opening, ROI
// cropping, and grid pooling. Its working memory — the background
// estimate and the byte mask — is sized by the frame that primes the
// background and reused for every frame after it, so a warm
// ProcessInto allocates nothing. A Preprocessor is not safe for
// concurrent use.
type Preprocessor struct {
	cfg VPConfig
	bg  *BackgroundModel
	fg  mask
	cc  labeler
}

// NewPreprocessor creates a VP pipeline with the given configuration.
func NewPreprocessor(cfg VPConfig) *Preprocessor {
	return &Preprocessor{cfg: cfg, bg: NewBackgroundModel(cfg.Alpha)}
}

// Reset clears the learned background so the next frame re-primes it
// (and re-sizes the working memory if its size differs); call when
// the camera feed cuts to a different scene.
func (p *Preprocessor) Reset() { p.bg.Reset() }

// Config returns the preprocessor configuration.
func (p *Preprocessor) Config() VPConfig { return p.cfg }

// foreground runs subtraction and opening on frame, leaving the
// result in p.fg. A frame that does not match the primed background
// is rejected before anything is written.
func (p *Preprocessor) foreground(frame *Image) error {
	if !p.bg.Primed() {
		p.fg.resize(frame.W, frame.H)
	}
	if err := p.bg.foreground(frame, p.cfg.Threshold, p.fg.pix); err != nil {
		return fmt.Errorf("vp: %w", err)
	}
	p.fg.open(p.cfg.OpenRadius)
	return nil
}

// Process converts one frame into its occupancy-grid representation,
// updating the dynamic background as a side effect. The grid is
// freshly allocated and the caller's to keep; ProcessInto is the
// allocation-free form.
func (p *Preprocessor) Process(frame *Image) (*Image, error) {
	return p.process(frame, nil)
}

// ProcessInto is Process writing into dst, which must be GridW×GridH;
// every cell is overwritten. On error neither dst nor the
// preprocessor's state (background, working memory) has changed.
func (p *Preprocessor) ProcessInto(frame, dst *Image) error {
	_, err := p.process(frame, dst)
	return err
}

// process validates everything it can before the kernels run, so an
// error leaves no trace; a nil dst asks for a fresh grid.
func (p *Preprocessor) process(frame, dst *Image) (*Image, error) {
	roi := p.cfg.ROI
	if roi.Empty() {
		roi = Rect{X0: 0, Y0: 0, X1: frame.W, Y1: frame.H}
	}
	roi, err := gridROI(roi, frame.W, frame.H, p.cfg.GridW, p.cfg.GridH)
	if err != nil {
		return nil, fmt.Errorf("vp: %w", err)
	}
	if dst == nil {
		dst = NewImage(p.cfg.GridW, p.cfg.GridH)
	} else if dst.W != p.cfg.GridW || dst.H != p.cfg.GridH {
		return nil, fmt.Errorf("vp: grid buffer is %dx%d, want %dx%d", dst.W, dst.H, p.cfg.GridW, p.cfg.GridH)
	}
	if err := p.foreground(frame); err != nil {
		return nil, err
	}
	p.fg.occupancy(dst, roi)
	return dst, nil
}

// ProcessMask runs subtraction and opening only, returning the full-
// resolution binary mask; the detection experiments (Table II) use
// this directly.
func (p *Preprocessor) ProcessMask(frame *Image) (*Image, error) {
	if err := p.foreground(frame); err != nil {
		return nil, err
	}
	return p.fg.image(), nil
}

// ProcessBlobs runs subtraction and opening, then labels the mask's
// 4-connected regions as ConnectedComponents does. The returned slice
// is reused by the next call.
func (p *Preprocessor) ProcessBlobs(frame *Image, minArea int) ([]Blob, error) {
	if err := p.foreground(frame); err != nil {
		return nil, err
	}
	return p.cc.components(&p.fg, minArea), nil
}

// ClipTensor stacks a sequence of occupancy grids into a [1,T,H,W]
// tensor, the input layout of the video classifiers.
func ClipTensor(grids []*Image) (*tensor.Tensor, error) {
	if len(grids) == 0 {
		return nil, fmt.Errorf("vision: empty clip")
	}
	h, w := grids[0].H, grids[0].W
	out := tensor.New(1, len(grids), h, w)
	for t, g := range grids {
		if g.W != w || g.H != h {
			return nil, fmt.Errorf("vision: frame %d is %dx%d, want %dx%d", t, g.W, g.H, w, h)
		}
		copy(out.Data[t*h*w:(t+1)*h*w], g.Pix)
	}
	return out, nil
}
