package vision

// MaskErode and MaskDilate run the byte-mask erosion and dilation on
// an Image (binarised at 0.5) so the tests can hold the kernels to
// the per-pixel oracles. The pipeline itself only reaches them through
// opening.

func MaskErode(im *Image, r int) *Image {
	m := newMask(im)
	m.erode(r)
	return m.image()
}

func MaskDilate(im *Image, r int) *Image {
	m := newMask(im)
	m.dilate(r)
	return m.image()
}
