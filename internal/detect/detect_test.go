package detect

import (
	"math/rand"
	"sync"
	"testing"

	"safecross/internal/flow"
	"safecross/internal/sim"
	"safecross/internal/vision"
)

// cachedYolite trains the detector once per test binary; training is
// the expensive part of this package's tests.
var (
	yoliteOnce sync.Once
	yoliteDet  *Yolite
	yoliteErr  error
)

func trainedYolite(t *testing.T) *Yolite {
	t.Helper()
	yoliteOnce.Do(func() {
		yoliteDet, yoliteErr = TrainYolite(7, 8)
	})
	if yoliteErr != nil {
		t.Fatal(yoliteErr)
	}
	return yoliteDet
}

func canonical(t *testing.T) *sim.OccludedScene {
	t.Helper()
	scene, err := CanonicalScene()
	if err != nil {
		t.Fatal(err)
	}
	return scene
}

func TestHitsZone(t *testing.T) {
	zone := vision.Rect{X0: 10, Y0: 10, X1: 30, Y1: 20}
	tests := []struct {
		name string
		dets []vision.Rect
		want bool
	}{
		{name: "empty", dets: nil, want: false},
		{name: "inside", dets: []vision.Rect{{X0: 12, Y0: 12, X1: 20, Y1: 18}}, want: true},
		{name: "outside", dets: []vision.Rect{{X0: 40, Y0: 10, X1: 50, Y1: 20}}, want: false},
		{name: "tiny-overlap", dets: []vision.Rect{{X0: 28, Y0: 18, X1: 31, Y1: 21}}, want: true},
		{name: "sub-threshold", dets: []vision.Rect{{X0: 29, Y0: 19, X1: 31, Y1: 21}}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := HitsZone(tt.dets, zone, HitOverlap); got != tt.want {
				t.Fatalf("HitsZone = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSequenceValidation(t *testing.T) {
	bgs := NewBGS()
	if _, err := bgs.Detect(nil); err == nil {
		t.Fatal("expected empty-sequence error")
	}
	a := vision.NewImage(8, 8)
	b := vision.NewImage(9, 8)
	if _, err := bgs.Detect([]*vision.Image{a, b}); err == nil {
		t.Fatal("expected size-mismatch error")
	}
	if _, err := NewSparseFlow().Detect([]*vision.Image{a}); err == nil {
		t.Fatal("expected too-few-frames error")
	}
	if _, err := NewDenseFlow().Detect([]*vision.Image{a}); err == nil {
		t.Fatal("expected too-few-frames error")
	}
}

func TestBGSFindsDangerZoneCar(t *testing.T) {
	scene := canonical(t)
	rects, err := NewBGS().Detect(scene.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if !HitsZone(rects, scene.Zone, HitOverlap) {
		t.Fatal("BGS must find the danger-zone vehicle (paper: success of background subtraction)")
	}
	// And its box must actually be on the car, not a fluke elsewhere
	// in the zone.
	found := false
	for _, r := range rects {
		if r.Intersect(scene.Car).Area() >= HitOverlap {
			found = true
		}
	}
	if !found {
		t.Fatalf("BGS boxes %v do not overlap the car %v", rects, scene.Car)
	}
}

func TestSparseFlowMissesDangerZoneCar(t *testing.T) {
	scene := canonical(t)
	rects, err := NewSparseFlow().Detect(scene.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if HitsZone(rects, scene.Zone, HitOverlap) {
		t.Fatalf("sparse flow should miss the low-contrast car (paper Fig. 8(b)); boxes %v", rects)
	}
}

func TestSparseFlowTracksHighContrastMover(t *testing.T) {
	// Sanity: sparse flow is a working detector on easy input — a
	// bright fast mover on a clean background.
	frames := make([]*vision.Image, 2)
	for i := range frames {
		im := vision.NewImage(64, 48)
		im.Fill(0.3)
		x := 20 + i*2
		im.FillRect(x, 20, x+14, 28, 0.95)
		frames[i] = im
	}
	rects, err := NewSparseFlow().Detect(frames)
	if err != nil {
		t.Fatal(err)
	}
	zone := vision.Rect{X0: 15, Y0: 15, X1: 45, Y1: 33}
	if !HitsZone(rects, zone, HitOverlap) {
		t.Fatalf("sparse flow failed on an easy high-contrast mover; boxes %v", rects)
	}
}

func TestDenseFlowFindsDangerZoneCar(t *testing.T) {
	scene := canonical(t)
	rects, err := NewDenseFlow().Detect(scene.Frames)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rects {
		if r.Intersect(scene.Car).Area() >= HitOverlap {
			found = true
		}
	}
	if !found {
		t.Fatalf("dense flow must find the car (paper Fig. 8(c)); boxes %v car %v", rects, scene.Car)
	}
}

func TestYoliteMissesDangerZoneCarButFindsNearVehicles(t *testing.T) {
	scene := canonical(t)
	d := trainedYolite(t)
	rects, err := d.Detect(scene.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if HitsZone(rects, scene.Zone, HitOverlap) {
		t.Fatalf("yolite should miss the far low-contrast car (paper Fig. 8(d)); boxes %v", rects)
	}
	// But it must not be blind: the bright occluding truck (a large,
	// near-field-like object) should be detected.
	truck := vision.Rect{X0: sim.ConflictX + 6, Y0: 34, X1: sim.ConflictX + 32, Y1: 44}
	foundNear := false
	for _, r := range rects {
		if r.Overlaps(truck) {
			foundNear = true
		}
	}
	if !foundNear {
		t.Fatalf("yolite found nothing at all; boxes %v", rects)
	}
}

func TestYoliteDetectsCleanNearFieldVehicle(t *testing.T) {
	d := trainedYolite(t)
	im := vision.NewImage(64, 40)
	im.Fill(0.33)
	im.FillRect(20, 12, 38, 20, 0.9)
	rects, err := d.Detect([]*vision.Image{im})
	if err != nil {
		t.Fatal(err)
	}
	want := vision.Rect{X0: 20, Y0: 12, X1: 38, Y1: 20}
	if !HitsZone(rects, want, HitOverlap) {
		t.Fatalf("yolite missed a clean training-distribution vehicle; boxes %v", rects)
	}
}

func TestTrainYoliteValidation(t *testing.T) {
	if _, err := TrainYolite(1, 0); err == nil {
		t.Fatal("expected epochs error")
	}
}

func TestClusterPoints(t *testing.T) {
	pts := []flow.Point{
		{X: 10, Y: 10}, {X: 12, Y: 11}, {X: 11, Y: 13}, // cluster of 3
		{X: 40, Y: 40}, // singleton
	}
	rects := clusterPoints(pts, 5, 3)
	if len(rects) != 1 {
		t.Fatalf("clusters = %d, want 1", len(rects))
	}
	r := rects[0]
	if r.X0 != 10 || r.Y0 != 10 || r.X1 != 13 || r.Y1 != 14 {
		t.Fatalf("cluster box = %+v", r)
	}
	if got := clusterPoints(nil, 5, 3); got != nil {
		t.Fatal("empty input must return nil")
	}
}

func TestRunTableIIShape(t *testing.T) {
	scene := canonical(t)
	dets := []Detector{NewBGS(), NewSparseFlow(), NewDenseFlow(), trainedYolite(t)}
	rows, err := RunTableII(dets, scene, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Method] = r
	}
	// Detection pattern of Table II: BGS yes, sparse no, dense yes,
	// yolo no.
	if !byName["bgs"].Detected || byName["sparse-of"].Detected ||
		!byName["dense-of"].Detected || byName["yolite"].Detected {
		t.Fatalf("detection pattern wrong: %+v", rows)
	}
	// Cost ordering: BGS < sparse < dense < yolite. The first two
	// steps and sparse < yolite are gaps of 3x or more in wall time on
	// any host; dense vs yolite is a near tie in wall time that flips
	// with the core count (yolite's kernels split across cores,
	// Horn–Schunck is one scalar loop), so it is asserted on the
	// analytic FLOP count instead.
	if !(byName["bgs"].MeanTime < byName["sparse-of"].MeanTime &&
		byName["sparse-of"].MeanTime < byName["dense-of"].MeanTime &&
		byName["sparse-of"].MeanTime < byName["yolite"].MeanTime) {
		t.Fatalf("timing ordering wrong: %+v", rows)
	}
	if dense, yol := byName["dense-of"].Flops, byName["yolite"].Flops; !(0 < dense && dense < yol) {
		t.Fatalf("FLOP ordering wrong: dense-of %d, yolite %d", dense, yol)
	}
	if _, err := RunTableII(dets, scene, 0); err == nil {
		t.Fatal("expected reps error")
	}
}

func TestDetectorsDeterministic(t *testing.T) {
	scene := canonical(t)
	for _, d := range []Detector{NewBGS(), NewSparseFlow(), NewDenseFlow()} {
		a, err := d.Detect(scene.Frames)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Detect(scene.Frames)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s not deterministic: %v vs %v", d.Name(), a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s not deterministic: %v vs %v", d.Name(), a, b)
			}
		}
	}
}

func TestYoliteUntrainedStillRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewYolite(rng)
	im := vision.NewImage(32, 24)
	if _, err := d.Detect([]*vision.Image{im}); err != nil {
		t.Fatal(err)
	}
	if d.Name() != "yolite" {
		t.Fatalf("name = %q", d.Name())
	}
	if len(d.Params()) == 0 {
		t.Fatal("yolite must expose parameters")
	}
}
