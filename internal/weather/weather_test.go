package weather

import (
	"math"
	"math/rand"
	"testing"

	"safecross/internal/sim"
	"safecross/internal/vision"
)

func fitDetector(t *testing.T) *Detector {
	t.Helper()
	det, err := FitFromSim(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestExtractFeatures(t *testing.T) {
	im := vision.NewImage(10, 10)
	im.Fill(0.5)
	f := Extract(im)
	if f.Mean != 0.5 {
		t.Fatalf("mean = %v, want 0.5", f.Mean)
	}
	if f.Noise != 0 {
		t.Fatalf("flat image noise = %v, want 0", f.Noise)
	}
	if f.Speckle != 0 {
		t.Fatalf("speckle = %v, want 0", f.Speckle)
	}
	im.Set(5, 5, 1)
	f = Extract(im)
	if f.Speckle != 0.01 {
		t.Fatalf("speckle = %v, want 0.01", f.Speckle)
	}
	if f.Noise <= 0 {
		t.Fatal("speckled image must have noise energy")
	}
	// Empty image does not panic.
	if got := Extract(vision.NewImage(0, 0)); got.Mean != 0 {
		t.Fatalf("empty image features = %+v", got)
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Fatal("expected no-samples error")
	}
	if _, err := Fit(map[sim.Weather][]*vision.Image{sim.Day: nil}); err == nil {
		t.Fatal("expected empty-class error")
	}
	if _, err := FitFromSim(0, 1); err == nil {
		t.Fatal("expected frames error")
	}
}

// TestClassifyFreshFrames fits on one seed and classifies frames from
// unseen seeds; accuracy must be high for all three scenes.
func TestClassifyFreshFrames(t *testing.T) {
	det := fitDetector(t)
	for _, w := range sim.AllWeathers() {
		world := sim.NewWorld(sim.Config{Weather: w, Seed: 555, TurnerEnabled: true})
		frames := world.RunFrames(30)
		correct := 0
		for _, fr := range frames {
			if det.Classify(fr) == w {
				correct++
			}
		}
		if acc := float64(correct) / float64(len(frames)); acc < 0.8 {
			t.Fatalf("%v classification accuracy = %v, want ≥0.8", w, acc)
		}
	}
}

func TestMonitorDebounce(t *testing.T) {
	det := fitDetector(t)
	mon := NewMonitor(det, sim.Day, 3)

	snow := sim.NewWorld(sim.Config{Weather: sim.Snow, Seed: 777})
	frames := snow.RunFrames(12)

	changed := false
	changedAt := -1
	for i, fr := range frames {
		cur, ch := mon.Observe(fr)
		if ch {
			changed = true
			changedAt = i
			if cur != sim.Snow {
				t.Fatalf("change reported to %v, want snow", cur)
			}
			break
		}
		if i == 0 && mon.Current() != sim.Day {
			t.Fatal("a single frame must not change the scene")
		}
	}
	if !changed {
		t.Fatal("monitor never detected the scene change")
	}
	if changedAt < 2 {
		t.Fatalf("change completed after %d frames, debounce of 3 requires ≥2", changedAt)
	}
	if mon.Current() != sim.Snow {
		t.Fatalf("settled scene = %v", mon.Current())
	}
}

func TestMonitorIgnoresSingleOutlier(t *testing.T) {
	det := fitDetector(t)
	mon := NewMonitor(det, sim.Day, 4)

	day := sim.NewWorld(sim.Config{Weather: sim.Day, Seed: 888})
	snow := sim.NewWorld(sim.Config{Weather: sim.Snow, Seed: 889})

	// Interleave: mostly day frames with a lone snow frame.
	for i := 0; i < 6; i++ {
		day.Step()
		if _, ch := mon.Observe(day.Render()); ch {
			t.Fatal("day frames must not change the scene")
		}
	}
	snow.Step()
	if _, ch := mon.Observe(snow.Render()); ch {
		t.Fatal("one outlier frame must not change the scene")
	}
	for i := 0; i < 6; i++ {
		day.Step()
		mon.Observe(day.Render())
	}
	if mon.Current() != sim.Day {
		t.Fatalf("scene drifted to %v on a single outlier", mon.Current())
	}
}

func TestMonitorDefaultDebounce(t *testing.T) {
	det := fitDetector(t)
	mon := NewMonitor(det, sim.Rain, 0)
	if mon.Current() != sim.Rain {
		t.Fatalf("initial scene = %v", mon.Current())
	}
}

// extractAt is the reference Extract: ten bounds-checked At reads per
// pixel, one interleaved loop. Extract must reproduce its Features
// with ==; a rounding difference would move the fitted centroids.
func extractAt(im *vision.Image) Features {
	var f Features
	n := float64(im.W * im.H)
	if n == 0 {
		return f
	}
	sum := 0.0
	speckles := 0
	noise := 0.0
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			v := im.At(x, y)
			sum += v
			if v >= 0.985 || v <= 0.015 {
				speckles++
			}
			if x > 0 && x < im.W-1 && y > 0 && y < im.H-1 {
				local := 0.0
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						local += im.At(x+dx, y+dy)
					}
				}
				noise += math.Abs(v - local/9)
			}
		}
	}
	f.Mean = sum / n
	f.Speckle = float64(speckles) / n
	inner := float64((im.W - 2) * (im.H - 2))
	if inner > 0 {
		f.Noise = noise / inner
	}
	return f
}

func TestExtractMatchesOracle(t *testing.T) {
	for _, w := range sim.AllWeathers() {
		world := sim.NewWorld(sim.Config{Weather: w, Seed: 60 + int64(w), TruckPresent: true, TurnerEnabled: true})
		for n, fr := range world.RunFrames(200) {
			if got, want := Extract(fr), extractAt(fr); got != want {
				t.Fatalf("%v frame %d: Extract = %+v, want %+v", w, n, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(13))
	for _, size := range [][2]int{{0, 0}, {1, 1}, {2, 5}, {5, 2}, {3, 3}, {1, 9}, {4, 3}} {
		im := vision.NewImage(size[0], size[1])
		for i := range im.Pix {
			im.Pix[i] = rng.Float64()
		}
		if got, want := Extract(im), extractAt(im); got != want {
			t.Fatalf("%dx%d: Extract = %+v, want %+v", size[0], size[1], got, want)
		}
	}
}

func TestSceneDetectAllocatesNothing(t *testing.T) {
	mon := NewMonitor(fitDetector(t), sim.Day, 0)
	frames := sim.NewWorld(sim.Config{Weather: sim.Rain, Seed: 14}).RunFrames(8)
	n := 0
	var f Features
	allocs := testing.AllocsPerRun(50, func() {
		f = Extract(frames[n%len(frames)])
		mon.Observe(frames[n%len(frames)])
		n++
	})
	if allocs != 0 {
		t.Fatalf("Extract + Monitor.Observe allocate %v times a frame, want 0", allocs)
	}
	if f.Mean == 0 {
		t.Fatal("features of a rain frame must not be zero")
	}
}
