// Package vision implements the image-processing substrate of
// SafeCross's video pre-processing (VP) module: grayscale images, a
// dynamic background model, background subtraction, mathematical
// morphology (erosion, dilation, opening), connected-component
// labelling, and the remapping of a camera frame into the compact 2-D
// occupancy representation fed to the video classifiers (Fig. 3 of
// the paper).
package vision

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Image is a grayscale image with float64 intensities in [0, 1],
// stored row-major.
type Image struct {
	// W and H are the image dimensions in pixels.
	W, H int
	// Pix holds H*W intensities, row-major.
	Pix []float64
}

// NewImage allocates a black (all-zero) image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// At returns the intensity at (x, y). Out-of-bounds reads return 0,
// which simplifies the windowed operators.
func (im *Image) At(x, y int) float64 {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return 0
	}
	return im.Pix[y*im.W+x]
}

// Set stores v at (x, y); out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, v float64) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = v
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	c := NewImage(im.W, im.H)
	copy(c.Pix, im.Pix)
	return c
}

// Fill sets every pixel to v.
func (im *Image) Fill(v float64) {
	for i := range im.Pix {
		im.Pix[i] = v
	}
}

// Clamp limits all intensities to [0, 1].
func (im *Image) Clamp() {
	for i, v := range im.Pix {
		if v < 0 {
			im.Pix[i] = 0
		} else if v > 1 {
			im.Pix[i] = 1
		}
	}
}

// Mean returns the mean intensity.
func (im *Image) Mean() float64 {
	if len(im.Pix) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range im.Pix {
		s += v
	}
	return s / float64(len(im.Pix))
}

// StdDev returns the standard deviation of intensities.
func (im *Image) StdDev() float64 {
	m := im.Mean()
	s := 0.0
	for _, v := range im.Pix {
		d := v - m
		s += d * d
	}
	if len(im.Pix) == 0 {
		return 0
	}
	return math.Sqrt(s / float64(len(im.Pix)))
}

// FillRect paints the axis-aligned rectangle [x0,x1)×[y0,y1) with v,
// clipped to the image bounds.
func (im *Image) FillRect(x0, y0, x1, y1 int, v float64) {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > im.W {
		x1 = im.W
	}
	if y1 > im.H {
		y1 = im.H
	}
	for y := y0; y < y1; y++ {
		row := im.Pix[y*im.W:]
		for x := x0; x < x1; x++ {
			row[x] = v
		}
	}
}

// AddGaussianNoise adds N(0, sigma) noise to every pixel and clamps
// to [0, 1]. This models the paper's low-quality decades-old cameras.
func (im *Image) AddGaussianNoise(rng *rand.Rand, sigma float64) {
	for i := range im.Pix {
		im.Pix[i] += rng.NormFloat64() * sigma
	}
	im.Clamp()
}

// AddSaltPepper sets a fraction p of pixels to either full white or
// full black; snow speckle and dead pixels both look like this.
func (im *Image) AddSaltPepper(rng *rand.Rand, p float64) {
	n := int(float64(len(im.Pix)) * p)
	for i := 0; i < n; i++ {
		idx := rng.Intn(len(im.Pix))
		if rng.Float64() < 0.5 {
			im.Pix[idx] = 1
		} else {
			im.Pix[idx] = 0
		}
	}
}

// AbsDiff returns |a - b| pixel-wise. The images must be the same
// size.
func AbsDiff(a, b *Image) (*Image, error) {
	if a.W != b.W || a.H != b.H {
		return nil, fmt.Errorf("vision: size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	out := NewImage(a.W, a.H)
	for i := range a.Pix {
		out.Pix[i] = math.Abs(a.Pix[i] - b.Pix[i])
	}
	return out, nil
}

// Threshold returns a binary image: 1 where intensity ≥ t, else 0.
func (im *Image) Threshold(t float64) *Image {
	out := NewImage(im.W, im.H)
	for i, v := range im.Pix {
		if v >= t {
			out.Pix[i] = 1
		}
	}
	return out
}

// ASCII renders the image as rows of characters from a 10-step
// intensity ramp, for terminal visualisation in the examples and
// cmd/safecross-bench figure output.
func (im *Image) ASCII() string {
	const ramp = " .:-=+*#%@"
	var b strings.Builder
	b.Grow((im.W + 1) * im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			v := im.Pix[y*im.W+x]
			idx := int(v * float64(len(ramp)-1))
			if idx < 0 {
				idx = 0
			} else if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Rect is an axis-aligned pixel rectangle, half-open: [X0,X1)×[Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Width returns the rectangle width in pixels.
func (r Rect) Width() int { return r.X1 - r.X0 }

// Height returns the rectangle height in pixels.
func (r Rect) Height() int { return r.Y1 - r.Y0 }

// Area returns the rectangle area in pixels.
func (r Rect) Area() int { return r.Width() * r.Height() }

// Empty reports whether the rectangle contains no pixels.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Contains reports whether the point (x, y) lies inside r.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Intersect returns the overlapping region of r and o (possibly
// empty).
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{
		X0: maxInt(r.X0, o.X0), Y0: maxInt(r.Y0, o.Y0),
		X1: minInt(r.X1, o.X1), Y1: minInt(r.Y1, o.Y1),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Overlaps reports whether r and o share any pixels.
func (r Rect) Overlaps(o Rect) bool { return !r.Intersect(o).Empty() }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
