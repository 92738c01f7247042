package vision_test

// The reference implementations of the VP stages — per-pixel At loops
// over float64 images, exactly as the pipeline ran before it moved to
// byte masks — and the tests that hold the byte kernels to them with
// ==, not a tolerance: grids feed a trained classifier, so a one-ulp
// drift is a different input.

import (
	"math/rand"
	"testing"

	"safecross/internal/sim"
	"safecross/internal/vision"
)

func erodeAt(im *vision.Image, r int) *vision.Image {
	out := vision.NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			keep := true
			for dy := -r; dy <= r && keep; dy++ {
				for dx := -r; dx <= r; dx++ {
					if im.At(x+dx, y+dy) < 0.5 {
						keep = false
						break
					}
				}
			}
			if keep {
				out.Pix[y*im.W+x] = 1
			}
		}
	}
	return out
}

func dilateAt(im *vision.Image, r int) *vision.Image {
	out := vision.NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			hit := false
			for dy := -r; dy <= r && !hit; dy++ {
				for dx := -r; dx <= r; dx++ {
					if im.At(x+dx, y+dy) >= 0.5 {
						hit = true
						break
					}
				}
			}
			if hit {
				out.Pix[y*im.W+x] = 1
			}
		}
	}
	return out
}

func openAt(im *vision.Image, r int) *vision.Image { return dilateAt(erodeAt(im, r), r) }

func occupancyAt(mask *vision.Image, roi vision.Rect, gw, gh int) *vision.Image {
	roi = roi.Intersect(vision.Rect{X0: 0, Y0: 0, X1: mask.W, Y1: mask.H})
	out := vision.NewImage(gw, gh)
	cellW := float64(roi.Width()) / float64(gw)
	cellH := float64(roi.Height()) / float64(gh)
	for gy := 0; gy < gh; gy++ {
		y0 := roi.Y0 + int(float64(gy)*cellH)
		y1 := roi.Y0 + int(float64(gy+1)*cellH)
		if y1 <= y0 {
			y1 = y0 + 1
		}
		for gx := 0; gx < gw; gx++ {
			x0 := roi.X0 + int(float64(gx)*cellW)
			x1 := roi.X0 + int(float64(gx+1)*cellW)
			if x1 <= x0 {
				x1 = x0 + 1
			}
			on, total := 0, 0
			for y := y0; y < y1 && y < roi.Y1; y++ {
				row := mask.Pix[y*mask.W:]
				for x := x0; x < x1 && x < roi.X1; x++ {
					total++
					if row[x] >= 0.5 {
						on++
					}
				}
			}
			if total > 0 {
				out.Pix[gy*gw+gx] = float64(on) / float64(total)
			}
		}
	}
	return out
}

func componentsLabelled(im *vision.Image, minArea int) []vision.Blob {
	labels := make([]int32, len(im.Pix))
	var blobs []vision.Blob
	var stack [][2]int
	next := int32(0)
	for sy := 0; sy < im.H; sy++ {
		for sx := 0; sx < im.W; sx++ {
			if im.Pix[sy*im.W+sx] < 0.5 || labels[sy*im.W+sx] != 0 {
				continue
			}
			next++
			stack = append(stack[:0], [2]int{sx, sy})
			labels[sy*im.W+sx] = next
			b := vision.Blob{Bounds: vision.Rect{X0: sx, Y0: sy, X1: sx + 1, Y1: sy + 1}}
			sumX, sumY := 0, 0
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				x, y := p[0], p[1]
				b.Area++
				sumX += x
				sumY += y
				if x < b.Bounds.X0 {
					b.Bounds.X0 = x
				}
				if x+1 > b.Bounds.X1 {
					b.Bounds.X1 = x + 1
				}
				if y < b.Bounds.Y0 {
					b.Bounds.Y0 = y
				}
				if y+1 > b.Bounds.Y1 {
					b.Bounds.Y1 = y + 1
				}
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := x+d[0], y+d[1]
					if nx < 0 || nx >= im.W || ny < 0 || ny >= im.H {
						continue
					}
					idx := ny*im.W + nx
					if im.Pix[idx] >= 0.5 && labels[idx] == 0 {
						labels[idx] = next
						stack = append(stack, [2]int{nx, ny})
					}
				}
			}
			if b.Area >= minArea {
				b.CentroidX = float64(sumX) / float64(b.Area)
				b.CentroidY = float64(sumY) / float64(b.Area)
				blobs = append(blobs, b)
			}
		}
	}
	for i := 1; i < len(blobs); i++ {
		for j := i; j > 0 && blobs[j].Area > blobs[j-1].Area; j-- {
			blobs[j], blobs[j-1] = blobs[j-1], blobs[j]
		}
	}
	return blobs
}

// oracleVP is the unfused pipeline: difference image, threshold image,
// background fold, At-loop opening.
type oracleVP struct {
	cfg vision.VPConfig
	bg  *vision.BackgroundModel
}

func newOracleVP(cfg vision.VPConfig) *oracleVP {
	return &oracleVP{cfg: cfg, bg: vision.NewBackgroundModel(cfg.Alpha)}
}

func (o *oracleVP) mask(t *testing.T, frame *vision.Image) *vision.Image {
	t.Helper()
	mask := vision.NewImage(frame.W, frame.H)
	if o.bg.Primed() {
		diff, err := o.bg.Subtract(frame)
		if err != nil {
			t.Fatal(err)
		}
		mask = diff.Threshold(o.cfg.Threshold)
	}
	if err := o.bg.Update(frame); err != nil {
		t.Fatal(err)
	}
	if o.cfg.OpenRadius > 0 {
		mask = openAt(mask, o.cfg.OpenRadius)
	}
	return mask
}

func (o *oracleVP) roi(frame *vision.Image) vision.Rect {
	if o.cfg.ROI.Empty() {
		return vision.Rect{X0: 0, Y0: 0, X1: frame.W, Y1: frame.H}
	}
	return o.cfg.ROI
}

func sameImage(t *testing.T, what string, got, want *vision.Image) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: size %dx%d, want %dx%d", what, got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("%s: pixel (%d,%d) = %v, want %v", what, i%want.W, i/want.W, got.Pix[i], want.Pix[i])
		}
	}
}

func sameBlobs(t *testing.T, what string, got, want []vision.Blob) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blobs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: blob %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func simFrames(weather sim.Weather, n int, seed int64) []*vision.Image {
	world := sim.NewWorld(sim.Config{Weather: weather, TruckPresent: true, TurnerEnabled: true, Seed: seed})
	return world.RunFrames(n)
}

// TestFusedVPMatchesOracle: Process, ProcessInto and ProcessMask give
// the oracle's pixels for every frame of a 200-frame stream in each
// scene, at every opening radius, with the whole frame, an explicit
// ROI, and a ROI with fewer pixels than the grid has cells.
func TestFusedVPMatchesOracle(t *testing.T) {
	rois := map[string]vision.Rect{
		"whole-frame":  {},
		"upper-right":  {X0: 48, Y0: 4, X1: 128, Y1: 52},
		"smaller-grid": {X0: 60, Y0: 20, X1: 71, Y1: 27},
	}
	for _, weather := range sim.AllWeathers() {
		t.Run(weather.String(), func(t *testing.T) {
			t.Parallel() // the At-loop oracle is slow, most of all under -race
			frames := simFrames(weather, 200, 40+int64(weather))
			for radius := 0; radius <= 2; radius++ {
				cfg := vision.DefaultVPConfig()
				cfg.OpenRadius = radius
				oracle := newOracleVP(cfg)
				masker := vision.NewPreprocessor(cfg)
				type variant struct {
					name       string
					cfg        vision.VPConfig
					fresh, inx *vision.Preprocessor
					dst        *vision.Image
				}
				var variants []*variant
				for name, roi := range rois {
					c := cfg
					c.ROI = roi
					variants = append(variants, &variant{
						name: name, cfg: c,
						fresh: vision.NewPreprocessor(c), inx: vision.NewPreprocessor(c),
						dst: vision.NewImage(c.GridW, c.GridH),
					})
				}
				for n, frame := range frames {
					want := oracle.mask(t, frame)
					got, err := masker.ProcessMask(frame)
					if err != nil {
						t.Fatal(err)
					}
					sameImage(t, "ProcessMask", got, want)
					for _, v := range variants {
						o := oracleVP{cfg: v.cfg}
						wantGrid := occupancyAt(want, o.roi(frame), v.cfg.GridW, v.cfg.GridH)
						grid, err := v.fresh.Process(frame)
						if err != nil {
							t.Fatal(err)
						}
						what := weather.String() + "/" + v.name
						sameImage(t, what+" Process", grid, wantGrid)
						v.dst.Fill(-1) // every cell must be overwritten
						if err := v.inx.ProcessInto(frame, v.dst); err != nil {
							t.Fatal(err)
						}
						sameImage(t, what+" ProcessInto", v.dst, wantGrid)
					}
					if n == len(frames)/2 {
						// A feed cut: everything re-primes, scratch is kept.
						oracle = newOracleVP(cfg)
						masker.Reset()
						for _, v := range variants {
							v.fresh.Reset()
							v.inx.Reset()
						}
					}
				}
			}
		})
	}
}

// TestFusedVPTinyFrame: a 3×3 frame is smaller than the radius-2
// structuring element and than the grid.
func TestFusedVPTinyFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for radius := 0; radius <= 2; radius++ {
		cfg := vision.DefaultVPConfig()
		cfg.OpenRadius = radius
		cfg.Threshold = 0.3
		oracle, vp := newOracleVP(cfg), vision.NewPreprocessor(cfg)
		for n := 0; n < 50; n++ {
			frame := vision.NewImage(3, 3)
			for i := range frame.Pix {
				frame.Pix[i] = rng.Float64()
			}
			want := oracle.mask(t, frame)
			grid, err := vp.Process(frame)
			if err != nil {
				t.Fatal(err)
			}
			sameImage(t, "tiny Process", grid, occupancyAt(want, oracle.roi(frame), cfg.GridW, cfg.GridH))
		}
	}
}

// TestMorphologyMatchesOracle: the morphology kernels on arbitrary
// (non-binary) images of awkward sizes.
func TestMorphologyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sizes := [][2]int{{1, 1}, {3, 3}, {1, 7}, {7, 1}, {2, 5}, {16, 12}, {33, 9}}
	for _, size := range sizes {
		for trial := 0; trial < 20; trial++ {
			im := vision.NewImage(size[0], size[1])
			density := rng.Float64()
			for i := range im.Pix {
				if rng.Float64() < density {
					im.Pix[i] = 0.5 + rng.Float64()/2
				} else {
					im.Pix[i] = rng.Float64() / 2.01
				}
			}
			for r := 0; r <= 3; r++ {
				sameImage(t, "erode", vision.MaskErode(im, r), erodeAt(im, r))
				sameImage(t, "dilate", vision.MaskDilate(im, r), dilateAt(im, r))
				sameImage(t, "Open", vision.Open(im, r), openAt(im, r))
			}
			sameBlobs(t, "ConnectedComponents", vision.ConnectedComponents(im, 1+trial%3), componentsLabelled(im, 1+trial%3))
			roi := vision.Rect{X0: rng.Intn(size[0]), Y0: rng.Intn(size[1]), X1: size[0] + 2, Y1: size[1] + 2}
			gw, gh := 1+rng.Intn(6), 1+rng.Intn(6)
			grid, err := vision.OccupancyGrid(im, roi, gw, gh)
			if err != nil {
				t.Fatal(err)
			}
			sameImage(t, "OccupancyGrid", grid, occupancyAt(im, roi, gw, gh))
		}
	}
}

// TestProcessBlobsMatchesOracle: the pedestrian monitor's path —
// subtraction, opening, labelling — against the unfused chain on a
// stream with pedestrians and vehicles in it.
func TestProcessBlobsMatchesOracle(t *testing.T) {
	cfg := vision.VPConfig{Alpha: 0.04, Threshold: 0.12, OpenRadius: 1}
	oracle, vp := newOracleVP(cfg), vision.NewPreprocessor(cfg)
	world := sim.NewWorld(sim.Config{Weather: sim.Day, TurnerEnabled: true, Seed: 21})
	seen := 0
	for n := 0; n < 240; n++ {
		if n%40 == 10 {
			world.SpawnPedestrian(n%80 == 10)
		}
		world.Step()
		frame := world.Render()
		want := componentsLabelled(oracle.mask(t, frame), 2)
		got, err := vp.ProcessBlobs(frame, 2)
		if err != nil {
			t.Fatal(err)
		}
		sameBlobs(t, "ProcessBlobs", got, want)
		seen += len(want)
	}
	if seen == 0 {
		t.Fatal("stream produced no blobs; the comparison is vacuous")
	}
}

// TestWrongSizeFrameLeavesNoTrace: a frame of another size mid-stream
// is an error that changes nothing — the following frames' grids equal
// those of a run that never saw it.
func TestWrongSizeFrameLeavesNoTrace(t *testing.T) {
	frames := simFrames(sim.Rain, 40, 5)
	clean, hit := vision.NewPreprocessor(vision.DefaultVPConfig()), vision.NewPreprocessor(vision.DefaultVPConfig())
	dst := vision.NewImage(16, 10)
	for n, frame := range frames {
		want, err := clean.Process(frame)
		if err != nil {
			t.Fatal(err)
		}
		if n == 20 {
			before := append([]float64(nil), dst.Pix...)
			if err := hit.ProcessInto(vision.NewImage(64, 40), dst); err == nil {
				t.Fatal("a 64x40 frame on a 128x80 background must be rejected")
			}
			for i, v := range before {
				if dst.Pix[i] != v {
					t.Fatal("rejected frame wrote into the grid buffer")
				}
			}
			if _, err := hit.ProcessMask(vision.NewImage(64, 40)); err == nil {
				t.Fatal("ProcessMask must reject it too")
			}
		}
		if err := hit.ProcessInto(frame, dst); err != nil {
			t.Fatal(err)
		}
		sameImage(t, "grid after rejected frame", dst, want)
	}
	if err := hit.ProcessInto(frames[0], vision.NewImage(8, 8)); err == nil {
		t.Fatal("a grid buffer of the wrong size must be rejected")
	}
}

// TestWarmVPAllocatesNothing: once the first frame has sized the
// working memory, ProcessInto and ProcessBlobs run without the heap —
// across a Reset too, which keeps the buffers.
func TestWarmVPAllocatesNothing(t *testing.T) {
	frames := simFrames(sim.Snow, 16, 6)
	vp := vision.NewPreprocessor(vision.DefaultVPConfig())
	dst := vision.NewImage(16, 10)
	n := 0
	step := func() {
		if n%7 == 6 {
			vp.Reset()
		}
		if err := vp.ProcessInto(frames[n%len(frames)], dst); err != nil {
			t.Fatal(err)
		}
		n++
	}
	step()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("warm ProcessInto allocates %v times a frame, want 0", allocs)
	}
	blobs := vision.NewPreprocessor(vision.VPConfig{Alpha: 0.04, Threshold: 0.12, OpenRadius: 1})
	label := func() {
		if _, err := blobs.ProcessBlobs(frames[n%len(frames)], 2); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for i := 0; i < len(frames); i++ {
		label() // let the flood-fill stack reach its working size
	}
	if allocs := testing.AllocsPerRun(50, label); allocs != 0 {
		t.Fatalf("warm ProcessBlobs allocates %v times a frame, want 0", allocs)
	}
}
