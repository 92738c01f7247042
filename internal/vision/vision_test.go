package vision

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestImageAtSetBounds(t *testing.T) {
	im := NewImage(4, 3)
	im.Set(2, 1, 0.5)
	if im.At(2, 1) != 0.5 {
		t.Fatalf("At = %v, want 0.5", im.At(2, 1))
	}
	// Out-of-bounds reads are zero, writes are ignored.
	if im.At(-1, 0) != 0 || im.At(4, 0) != 0 || im.At(0, 3) != 0 {
		t.Fatal("out-of-bounds read must be 0")
	}
	im.Set(9, 9, 1)
	if im.Mean() != 0.5/12 {
		t.Fatal("out-of-bounds write must be ignored")
	}
}

func TestFillRectClips(t *testing.T) {
	im := NewImage(4, 4)
	im.FillRect(-2, -2, 2, 2, 1)
	want := 4.0 // only the 2x2 in-bounds corner
	if got := im.Mean() * 16; math.Abs(got-want) > 1e-12 {
		t.Fatalf("FillRect painted %v pixels, want %v", got, want)
	}
}

func TestAbsDiffAndThreshold(t *testing.T) {
	a := NewImage(2, 2)
	b := NewImage(2, 2)
	a.Pix = []float64{0.9, 0.1, 0.5, 0.5}
	b.Pix = []float64{0.1, 0.9, 0.5, 0.4}
	d, err := AbsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	bin := d.Threshold(0.5)
	if bin.Pix[0] != 1 || bin.Pix[1] != 1 || bin.Pix[2] != 0 || bin.Pix[3] != 0 {
		t.Fatalf("threshold = %v", bin.Pix)
	}
	if _, err := AbsDiff(a, NewImage(3, 2)); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

func TestRectOperations(t *testing.T) {
	a := Rect{X0: 0, Y0: 0, X1: 4, Y1: 4}
	b := Rect{X0: 2, Y0: 2, X1: 6, Y1: 6}
	inter := a.Intersect(b)
	if inter.Area() != 4 {
		t.Fatalf("intersect area = %d, want 4", inter.Area())
	}
	if !a.Overlaps(b) {
		t.Fatal("rects should overlap")
	}
	c := Rect{X0: 10, Y0: 10, X1: 12, Y1: 12}
	if a.Overlaps(c) {
		t.Fatal("disjoint rects must not overlap")
	}
	if !a.Contains(3, 3) || a.Contains(4, 4) {
		t.Fatal("Contains uses half-open bounds")
	}
}

func TestBackgroundModelDetectsMover(t *testing.T) {
	bg := NewBackgroundModel(0.1)
	base := NewImage(20, 10)
	base.Fill(0.3)
	mask := make([]uint8, len(base.Pix))
	// Prime with several static frames.
	for i := 0; i < 5; i++ {
		if err := bg.foreground(base, 0.2, mask); err != nil {
			t.Fatal(err)
		}
	}
	// Now a bright vehicle appears.
	frame := base.Clone()
	frame.FillRect(5, 3, 9, 6, 0.95)
	if err := bg.foreground(frame, 0.2, mask); err != nil {
		t.Fatal(err)
	}
	on := 0
	for _, v := range mask {
		on += int(v)
	}
	if on != 4*3 {
		t.Fatalf("foreground pixels = %d, want 12", on)
	}
}

func TestBackgroundModelAdaptsToIlluminationDrift(t *testing.T) {
	bg := NewBackgroundModel(0.2)
	mask := make([]uint8, 8*8)
	for i := 0; i < 60; i++ {
		frame := NewImage(8, 8)
		frame.Fill(0.3 + float64(i)*0.005) // slow brightening
		if err := bg.foreground(frame, 0.15, mask); err != nil {
			t.Fatal(err)
		}
		for _, v := range mask {
			if v != 0 {
				t.Fatalf("frame %d: drift misdetected as motion", i)
			}
		}
	}
}

func TestBackgroundSubtractBeforePrimeFails(t *testing.T) {
	bg := NewBackgroundModel(0.1)
	if _, err := bg.Subtract(NewImage(2, 2)); err == nil {
		t.Fatal("expected unprimed error")
	}
	if bg.Background() != nil {
		t.Fatal("unprimed background must be nil")
	}
}

func TestBackgroundUpdateSizeMismatch(t *testing.T) {
	bg := NewBackgroundModel(0.1)
	if err := bg.Update(NewImage(4, 4)); err != nil {
		t.Fatal(err)
	}
	if err := bg.Update(NewImage(5, 4)); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

func TestOpeningRemovesNoiseKeepsVehicle(t *testing.T) {
	im := NewImage(40, 20)
	// A vehicle-sized blob.
	im.FillRect(10, 5, 18, 11, 1)
	// Salt noise: isolated single pixels.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		x, y := rng.Intn(40), rng.Intn(20)
		if x >= 8 && x < 20 && y >= 3 && y < 13 {
			continue // keep noise away from the vehicle for a crisp check
		}
		im.Set(x, y, 1)
	}
	opened := Open(im, 1)
	blobs := ConnectedComponents(opened, 1)
	if len(blobs) != 1 {
		t.Fatalf("blobs after opening = %d, want 1", len(blobs))
	}
	b := blobs[0]
	if b.Bounds.Width() < 6 || b.Bounds.Height() < 4 {
		t.Fatalf("vehicle blob too eroded: %+v", b.Bounds)
	}
}

func TestErodeDilateKnownShapes(t *testing.T) {
	im := NewImage(7, 7)
	im.FillRect(2, 2, 5, 5, 1) // 3x3 square
	e := MaskErode(im, 1)
	if e.At(3, 3) != 1 {
		t.Fatal("erosion must keep the centre of a 3x3 square")
	}
	count := 0
	for _, v := range e.Pix {
		if v >= 0.5 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("erosion of 3x3 square should leave 1 pixel, got %d", count)
	}
	d := MaskDilate(e, 1)
	count = 0
	for _, v := range d.Pix {
		if v >= 0.5 {
			count++
		}
	}
	if count != 9 {
		t.Fatalf("dilation should restore 9 pixels, got %d", count)
	}
}

// Property: opening is anti-extensive (never adds pixels) and
// idempotent (opening twice equals opening once).
func TestPropertyOpeningAntiExtensiveIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		im := NewImage(16, 12)
		for i := range im.Pix {
			if rng.Float64() < 0.4 {
				im.Pix[i] = 1
			}
		}
		once := Open(im, 1)
		for i := range once.Pix {
			if once.Pix[i] > im.Pix[i] {
				return false // added a pixel
			}
		}
		twice := Open(once, 1)
		for i := range twice.Pix {
			if twice.Pix[i] != once.Pix[i] {
				return false // not idempotent
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedComponentsSeparatesAndOrders(t *testing.T) {
	im := NewImage(20, 10)
	im.FillRect(1, 1, 3, 3, 1)   // area 4
	im.FillRect(10, 2, 16, 8, 1) // area 36
	im.Set(19, 9, 1)             // area 1
	blobs := ConnectedComponents(im, 1)
	if len(blobs) != 3 {
		t.Fatalf("blobs = %d, want 3", len(blobs))
	}
	if blobs[0].Area != 36 || blobs[1].Area != 4 || blobs[2].Area != 1 {
		t.Fatalf("blob areas = %d,%d,%d; want descending 36,4,1",
			blobs[0].Area, blobs[1].Area, blobs[2].Area)
	}
	if blobs[0].Bounds != (Rect{X0: 10, Y0: 2, X1: 16, Y1: 8}) {
		t.Fatalf("largest blob bounds = %+v", blobs[0].Bounds)
	}
	cx, cy := blobs[0].CentroidX, blobs[0].CentroidY
	if math.Abs(cx-12.5) > 1e-9 || math.Abs(cy-4.5) > 1e-9 {
		t.Fatalf("centroid = (%v,%v), want (12.5,4.5)", cx, cy)
	}
	// minArea filters.
	big := ConnectedComponents(im, 5)
	if len(big) != 1 {
		t.Fatalf("minArea filter left %d blobs, want 1", len(big))
	}
}

func TestOccupancyGrid(t *testing.T) {
	mask := NewImage(16, 8)
	mask.FillRect(0, 0, 8, 4, 1) // top-left quadrant fully on
	grid, err := OccupancyGrid(mask, Rect{X0: 0, Y0: 0, X1: 16, Y1: 8}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantOn := []float64{1, 1, 0, 0, 0, 0, 0, 0}
	for i, w := range wantOn {
		if grid.Pix[i] != w {
			t.Fatalf("grid = %v, want %v", grid.Pix, wantOn)
		}
	}
}

func TestOccupancyGridROI(t *testing.T) {
	mask := NewImage(16, 8)
	mask.FillRect(8, 0, 16, 8, 1) // right half on
	grid, err := OccupancyGrid(mask, Rect{X0: 8, Y0: 0, X1: 16, Y1: 8}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range grid.Pix {
		if v != 1 {
			t.Fatalf("ROI grid cell %d = %v, want 1", i, v)
		}
	}
	if _, err := OccupancyGrid(mask, Rect{X0: 100, Y0: 0, X1: 120, Y1: 8}, 2, 2); err == nil {
		t.Fatal("expected out-of-bounds ROI error")
	}
	if _, err := OccupancyGrid(mask, Rect{X0: 0, Y0: 0, X1: 16, Y1: 8}, 0, 2); err == nil {
		t.Fatal("expected grid-size error")
	}
}

func TestPreprocessorEndToEnd(t *testing.T) {
	cfg := DefaultVPConfig()
	cfg.GridW, cfg.GridH = 8, 4
	vp := NewPreprocessor(cfg)

	bgFrame := NewImage(64, 32)
	bgFrame.Fill(0.3)
	for i := 0; i < 5; i++ {
		if _, err := vp.Process(bgFrame); err != nil {
			t.Fatal(err)
		}
	}
	frame := bgFrame.Clone()
	frame.FillRect(40, 8, 52, 16, 0.95) // moving vehicle upper-right
	grid, err := vp.Process(frame)
	if err != nil {
		t.Fatal(err)
	}
	if grid.W != 8 || grid.H != 4 {
		t.Fatalf("grid size %dx%d", grid.W, grid.H)
	}
	// Occupancy should concentrate in the upper-right cells.
	upperRight := grid.At(5, 1) + grid.At(6, 1) + grid.At(5, 2) + grid.At(6, 2)
	if upperRight <= 0 {
		t.Fatalf("vehicle not visible in occupancy grid: %v", grid.Pix)
	}
	lowerLeft := grid.At(0, 3) + grid.At(1, 3)
	if lowerLeft != 0 {
		t.Fatalf("phantom occupancy in empty region: %v", grid.Pix)
	}
}

func TestPreprocessorReset(t *testing.T) {
	vp := NewPreprocessor(DefaultVPConfig())
	a := NewImage(32, 16)
	a.Fill(0.2)
	if _, err := vp.Process(a); err != nil {
		t.Fatal(err)
	}
	vp.Reset()
	// After reset the first frame re-primes: a totally different frame
	// must produce an empty mask, not a full-frame detection.
	b := NewImage(32, 16)
	b.Fill(0.9)
	grid, err := vp.Process(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range grid.Pix {
		if v != 0 {
			t.Fatal("first frame after Reset must prime, not detect")
		}
	}
}

func TestClipTensorLayout(t *testing.T) {
	g1 := NewImage(4, 2)
	g2 := NewImage(4, 2)
	g1.Set(1, 0, 0.5)
	g2.Set(3, 1, 0.75)
	clip, err := ClipTensor([]*Image{g1, g2})
	if err != nil {
		t.Fatal(err)
	}
	if clip.Rank() != 4 || clip.Shape[0] != 1 || clip.Shape[1] != 2 || clip.Shape[2] != 2 || clip.Shape[3] != 4 {
		t.Fatalf("clip shape = %v", clip.Shape)
	}
	if clip.At(0, 0, 0, 1) != 0.5 {
		t.Fatal("frame 0 misplaced")
	}
	if clip.At(0, 1, 1, 3) != 0.75 {
		t.Fatal("frame 1 misplaced")
	}
	if _, err := ClipTensor(nil); err == nil {
		t.Fatal("expected empty-clip error")
	}
	if _, err := ClipTensor([]*Image{g1, NewImage(3, 2)}); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

func TestNoiseInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	im := NewImage(50, 50)
	im.Fill(0.5)
	im.AddGaussianNoise(rng, 0.1)
	if s := im.StdDev(); s < 0.05 || s > 0.2 {
		t.Fatalf("gaussian noise stddev = %v, want ≈0.1", s)
	}
	for _, v := range im.Pix {
		if v < 0 || v > 1 {
			t.Fatal("noise must be clamped to [0,1]")
		}
	}
	im2 := NewImage(50, 50)
	im2.Fill(0.5)
	im2.AddSaltPepper(rng, 0.1)
	extremes := 0
	for _, v := range im2.Pix {
		if v == 0 || v == 1 {
			extremes++
		}
	}
	if extremes == 0 {
		t.Fatal("salt-pepper noise added no extremes")
	}
}

func TestASCIIRender(t *testing.T) {
	im := NewImage(3, 2)
	im.Set(0, 0, 0)
	im.Set(1, 0, 0.5)
	im.Set(2, 0, 1)
	s := im.ASCII()
	lines := 0
	for _, c := range s {
		if c == '\n' {
			lines++
		}
	}
	if lines != 2 {
		t.Fatalf("ASCII rendered %d lines, want 2", lines)
	}
	if s[0] != ' ' || s[2] != '@' {
		t.Fatalf("ASCII ramp endpoints wrong: %q", s)
	}
}
