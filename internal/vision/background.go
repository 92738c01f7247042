package vision

import (
	"fmt"
	"math"
)

// BackgroundModel maintains a dynamic per-pixel background estimate
// with exponential forgetting, the "constantly updated background"
// the paper's VP module subtracts from each frame. A dynamic model
// tracks slow illumination drift that a static reference frame would
// misclassify as motion.
type BackgroundModel struct {
	// Alpha is the per-frame learning rate in (0, 1]; larger values
	// adapt faster but absorb slow-moving vehicles into the
	// background.
	Alpha float64

	bg     *Image
	primed bool
}

// NewBackgroundModel creates a background model with learning rate
// alpha. The first observed frame primes the model.
func NewBackgroundModel(alpha float64) *BackgroundModel {
	return &BackgroundModel{Alpha: alpha}
}

// Background returns a copy of the current background estimate, or
// nil if no frame has been observed yet.
func (m *BackgroundModel) Background() *Image {
	if !m.primed {
		return nil
	}
	return m.bg.Clone()
}

// Primed reports whether the model has observed at least one frame.
func (m *BackgroundModel) Primed() bool { return m.primed }

// Reset forgets the estimate so the next frame re-primes the model.
// The buffer is kept and reused when that frame has the same size.
func (m *BackgroundModel) Reset() { m.primed = false }

// prime adopts frame as the background estimate.
func (m *BackgroundModel) prime(frame *Image) {
	if m.bg == nil || len(m.bg.Pix) != len(frame.Pix) {
		m.bg = NewImage(frame.W, frame.H)
	}
	m.bg.W, m.bg.H = frame.W, frame.H
	copy(m.bg.Pix, frame.Pix)
	m.primed = true
}

// match rejects a frame whose size differs from the primed background.
func (m *BackgroundModel) match(frame *Image) error {
	if frame.W != m.bg.W || frame.H != m.bg.H {
		return fmt.Errorf("vision: frame %dx%d does not match background %dx%d",
			frame.W, frame.H, m.bg.W, m.bg.H)
	}
	return nil
}

// Update folds a new frame into the background estimate.
func (m *BackgroundModel) Update(frame *Image) error {
	if !m.primed {
		m.prime(frame)
		return nil
	}
	if err := m.match(frame); err != nil {
		return err
	}
	a := m.Alpha
	for i, v := range frame.Pix {
		m.bg.Pix[i] = (1-a)*m.bg.Pix[i] + a*v
	}
	return nil
}

// Subtract returns the absolute difference between a frame and the
// current background, without updating the model. Call Update
// separately so callers control whether a frame is folded in before
// or after differencing.
func (m *BackgroundModel) Subtract(frame *Image) (*Image, error) {
	if !m.primed {
		return nil, fmt.Errorf("vision: background model not primed")
	}
	return AbsDiff(frame, m.bg)
}

// foreground is the fused subtraction step the paper describes, one
// pass over the frame: dst (one byte per pixel) is set where the frame
// differs from the background as it stood before this frame by at
// least threshold, and the frame is folded into the background with
// Update's expression. The frame that primes the model yields an empty
// mask. A frame of the wrong size is rejected with nothing written.
func (m *BackgroundModel) foreground(frame *Image, threshold float64, dst []uint8) error {
	if !m.primed {
		m.prime(frame)
		clear(dst)
		return nil
	}
	if err := m.match(frame); err != nil {
		return err
	}
	a := m.Alpha
	bg := m.bg.Pix
	pix, dst := frame.Pix[:len(bg)], dst[:len(bg)]
	for i, b := range bg {
		v := pix[i]
		var on uint8
		if math.Abs(v-b) >= threshold {
			on = 1
		}
		dst[i] = on
		bg[i] = (1-a)*b + a*v
	}
	return nil
}
