package vision

// Morphological operators on binary images with a square structuring
// element. The paper's VP module applies opening (erosion then
// dilation) to remove camera noise while preserving vehicle blobs:
// erosion deletes structureless specks, dilation restores the
// weakened vehicle silhouettes.
//
// There is one implementation, on byte masks: the Preprocessor runs it
// on its persistent planes, and Open converts an Image in, runs the
// same kernels, and converts out.

// mask is a binary image, one byte per pixel (0 or 1), row-major. tmp
// is the same-size scratch plane the separable passes bounce through,
// allocated by the first pass that needs it: the square structuring
// element factors into a row pass and a column pass, and with
// out-of-image pixels treated alike in both the result equals the 2-D
// window exactly.
type mask struct {
	w, h int
	pix  []uint8
	tmp  []uint8
}

// resize makes the mask w×h, reallocating only when the size changes.
// The contents are unspecified afterwards.
func (m *mask) resize(w, h int) {
	if n := w * h; len(m.pix) != n {
		m.pix = make([]uint8, n)
	}
	m.w, m.h = w, h
}

// newMask binarises im: a pixel is set where its intensity is ≥ 0.5.
func newMask(im *Image) *mask {
	m := &mask{}
	m.resize(im.W, im.H)
	for i, v := range im.Pix {
		if v >= 0.5 {
			m.pix[i] = 1
		}
	}
	return m
}

// image widens the mask to a fresh 0/1 Image.
func (m *mask) image() *Image {
	out := NewImage(m.w, m.h)
	for i, b := range m.pix {
		out.Pix[i] = float64(b)
	}
	return out
}

// andRun and orRun fold a run of mask bytes into dst.

func andRun(dst, a []uint8) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] &= a[i]
	}
}

func orRun(dst, a []uint8) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] |= a[i]
	}
}

// spread folds into every pixel its neighbours up to r away, first
// along its row (pix → tmp), then along its column (tmp → pix, as
// whole-plane shifts by k rows). Neighbours outside the image are
// skipped. fold is andRun for erosion, orRun for dilation.
func (m *mask) spread(r int, fold func(dst, a []uint8)) {
	w, h := m.w, m.h
	if len(m.tmp) != len(m.pix) {
		m.tmp = make([]uint8, len(m.pix))
	}
	for y := 0; y < h; y++ {
		src, dst := m.pix[y*w:(y+1)*w], m.tmp[y*w:(y+1)*w]
		copy(dst, src)
		for k := 1; k <= r && k < w; k++ {
			fold(dst[k:], src)
			fold(dst[:w-k], src[k:])
		}
	}
	copy(m.pix, m.tmp)
	for k := 1; k <= r && k < h; k++ {
		fold(m.pix[k*w:], m.tmp)
		fold(m.pix[:(h-k)*w], m.tmp[k*w:])
	}
}

// erode replaces the mask with its erosion by a (2r+1)×(2r+1) square:
// a pixel survives only if its whole neighbourhood is set. Pixels
// outside the image count as unset, so nothing within r of a border
// survives and blobs touching the border erode there too.
func (m *mask) erode(r int) {
	w, h := m.w, m.h
	if r <= 0 {
		return
	}
	if w <= 2*r || h <= 2*r {
		clear(m.pix)
		return
	}
	m.spread(r, andRun)
	clear(m.pix[:r*w])
	clear(m.pix[(h-r)*w:])
	for y := r; y < h-r; y++ {
		clear(m.pix[y*w : y*w+r])
		clear(m.pix[(y+1)*w-r : (y+1)*w])
	}
}

// dilate replaces the mask with its dilation by a (2r+1)×(2r+1)
// square: a pixel is set if any in-image neighbour is set.
func (m *mask) dilate(r int) {
	if r > 0 {
		m.spread(r, orRun)
	}
}

// open is erosion followed by dilation with the same radius.
func (m *mask) open(r int) {
	m.erode(r)
	m.dilate(r)
}

// Open performs morphological opening: erosion followed by dilation
// with the same structuring element radius. Small specks (noise)
// vanish entirely; larger structures survive approximately unchanged.
func Open(im *Image, r int) *Image {
	m := newMask(im)
	m.open(r)
	return m.image()
}

// Blob is a connected foreground region in a binary image.
type Blob struct {
	// Bounds is the tight bounding box of the region.
	Bounds Rect
	// Area is the number of set pixels in the region.
	Area int
	// CentroidX and CentroidY are the mean pixel coordinates.
	CentroidX, CentroidY float64
}

// labeler holds the flood-fill stack and result slice connected-
// component labelling reuses from call to call.
type labeler struct {
	stack []int
	blobs []Blob
}

// components labels the 4-connected regions of m, clearing each pixel
// as it is visited (the mask is consumed, which is what saves a label
// plane). Blobs are ordered by decreasing area, ties in raster order
// of discovery; regions smaller than minArea are dropped. The result
// aliases the labeler and is valid until its next call.
func (l *labeler) components(m *mask, minArea int) []Blob {
	w, h, pix := m.w, m.h, m.pix
	blobs, stack := l.blobs[:0], l.stack[:0]
	for start, set := range pix {
		if set == 0 {
			continue
		}
		pix[start] = 0
		stack = append(stack, start)
		sx, sy := start%w, start/w
		b := Blob{Bounds: Rect{X0: sx, Y0: sy, X1: sx + 1, Y1: sy + 1}}
		sumX, sumY := 0, 0
		for len(stack) > 0 {
			idx := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := idx%w, idx/w
			b.Area++
			sumX += x
			sumY += y
			b.Bounds.X0 = minInt(b.Bounds.X0, x)
			b.Bounds.X1 = maxInt(b.Bounds.X1, x+1)
			b.Bounds.Y0 = minInt(b.Bounds.Y0, y)
			b.Bounds.Y1 = maxInt(b.Bounds.Y1, y+1)
			for _, n := range [4]struct {
				inside bool
				idx    int
			}{{x+1 < w, idx + 1}, {x > 0, idx - 1}, {y+1 < h, idx + w}, {y > 0, idx - w}} {
				if n.inside && pix[n.idx] != 0 {
					pix[n.idx] = 0
					stack = append(stack, n.idx)
				}
			}
		}
		if b.Area >= minArea {
			b.CentroidX = float64(sumX) / float64(b.Area)
			b.CentroidY = float64(sumY) / float64(b.Area)
			blobs = append(blobs, b)
		}
	}
	// Order by decreasing area (insertion sort: blob counts are tiny).
	for i := 1; i < len(blobs); i++ {
		for j := i; j > 0 && blobs[j].Area > blobs[j-1].Area; j-- {
			blobs[j], blobs[j-1] = blobs[j-1], blobs[j]
		}
	}
	l.blobs, l.stack = blobs, stack
	return blobs
}

// ConnectedComponents labels 4-connected foreground regions of a
// binary image and returns one Blob per region, ordered by decreasing
// area. Regions smaller than minArea pixels are dropped.
func ConnectedComponents(im *Image, minArea int) []Blob {
	var l labeler
	return l.components(newMask(im), minArea)
}
