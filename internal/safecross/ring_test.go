package safecross

import (
	"context"
	"testing"

	"safecross/internal/dataset"
	"safecross/internal/sim"
	"safecross/internal/telemetry"
	"safecross/internal/tensor"
	"safecross/internal/vision"
	"safecross/internal/weather"
)

// clipRecorder is a ClassifyFunc that keeps a copy of every clip it is
// handed (the clip itself is only valid during the call).
type clipRecorder struct {
	clips [][]float64
	label int
}

func (r *clipRecorder) classify(_ context.Context, _ sim.Weather, clip *tensor.Tensor, _ bool) (int, error) {
	r.clips = append(r.clips, append([]float64(nil), clip.Data...))
	return r.label, nil
}

func servedFramework(t *testing.T, cfg Config, classify ClassifyFunc) *Framework {
	t.Helper()
	det, err := weather.FitFromSim(15, 99)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewServed(cfg, classify, det)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// referenceClips stacks, for every frame from the clipLen-th on, the
// last clipLen grids of an independent VP run the allocating way.
func referenceClips(t *testing.T, frames []*vision.Image, clipLen int) [][]float64 {
	t.Helper()
	vp := vision.NewPreprocessor(vision.DefaultVPConfig())
	var grids []*vision.Image
	var clips [][]float64
	for _, frame := range frames {
		g, err := vp.Process(frame)
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, g)
		if len(grids) >= clipLen {
			clip, err := vision.ClipTensor(grids[len(grids)-clipLen:])
			if err != nil {
				t.Fatal(err)
			}
			clips = append(clips, clip.Data)
		}
	}
	return clips
}

func sameClips(t *testing.T, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d clips classified, want %d", len(got), len(want))
	}
	for c := range want {
		for i := range want[c] {
			if got[c][i] != want[c][i] {
				t.Fatalf("clip %d element %d = %v, want %v", c, i, got[c][i], want[c][i])
			}
		}
	}
}

// TestRingClipMatchesClipTensor: the fixed ring and persistent tensor
// hand classify, frame after frame and through several wrap-arounds,
// exactly the clip vision.ClipTensor stacks from fresh grids.
func TestRingClipMatchesClipTensor(t *testing.T) {
	const clipLen = 7
	frames := sim.NewWorld(sim.Config{Weather: sim.Day, TruckPresent: true, TurnerEnabled: true, Seed: 41}).RunFrames(4*clipLen + 3)
	rec := &clipRecorder{label: dataset.ClassSafe}
	f := servedFramework(t, Config{ClipLen: clipLen}, rec.classify)
	for n, frame := range frames {
		d, err := f.ProcessFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if d.Ready != (n >= clipLen-1) {
			t.Fatalf("frame %d: ready = %v", n, d.Ready)
		}
	}
	sameClips(t, rec.clips, referenceClips(t, frames, clipLen))
}

// TestWrongSizeFrameMidStream: the frame is refused with an error and
// leaves background, mask and ring untouched — the clips after it are
// those of a run that never saw it.
func TestWrongSizeFrameMidStream(t *testing.T) {
	const clipLen = 5
	frames := sim.NewWorld(sim.Config{Weather: sim.Rain, TruckPresent: true, Seed: 42}).RunFrames(3 * clipLen)
	rec := &clipRecorder{}
	f := servedFramework(t, Config{ClipLen: clipLen}, rec.classify)
	for n, frame := range frames {
		if n == clipLen+2 {
			if _, err := f.ProcessFrame(vision.NewImage(sim.FrameW/2, sim.FrameH/2)); err == nil {
				t.Fatal("a half-size frame must be rejected")
			}
		}
		if _, err := f.ProcessFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	sameClips(t, rec.clips, referenceClips(t, frames, clipLen))
}

// TestResetRestartsRingAndStreak: after Reset the framework behaves
// like a new one — no verdict until the ring refills, the refilled
// clip holds only post-reset grids on a re-primed background, and the
// safe streak starts over — while a differently sized feed is accepted
// because the background re-primes.
func TestResetRestartsRingAndStreak(t *testing.T) {
	const clipLen = 4
	world := sim.NewWorld(sim.Config{Weather: sim.Day, TruckPresent: true, Seed: 43})
	before, after := world.RunFrames(clipLen+3), world.RunFrames(2*clipLen)
	rec := &clipRecorder{label: dataset.ClassSafe}
	f := servedFramework(t, Config{ClipLen: clipLen, SafeStreak: 2}, rec.classify)
	var last *Decision
	for _, frame := range before {
		var err error
		if last, err = f.ProcessFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	if !last.Safe {
		t.Fatal("setup: the streak of safe verdicts must have released TURN")
	}
	f.Reset()
	rec.clips = nil
	for n, frame := range after {
		d, err := f.ProcessFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if d.Ready != (n >= clipLen-1) {
			t.Fatalf("frame %d after Reset: ready = %v", n, d.Ready)
		}
		if n == clipLen-1 && d.Safe {
			t.Fatal("first verdict after Reset released TURN: the safe streak survived")
		}
	}
	sameClips(t, rec.clips, referenceClips(t, after, clipLen))

	f.Reset()
	half := vision.NewImage(before[0].W/2, before[0].H/2)
	if _, err := f.ProcessFrame(half); err != nil {
		t.Fatalf("Reset must let a feed of another size re-prime: %v", err)
	}
}

// TestWarmFrameAllocatesNothing: a served framework whose ring is full
// runs scene detection, VP, the clip fill and the verdict bookkeeping
// without the heap, with metrics on or off. What a frame still
// allocates is the service's and the caller's (a retained Decision).
func TestWarmFrameAllocatesNothing(t *testing.T) {
	frames := sim.NewWorld(sim.Config{Weather: sim.Day, TruckPresent: true, Seed: 44}).RunFrames(24)
	trivial := func(context.Context, sim.Weather, *tensor.Tensor, bool) (int, error) { return dataset.ClassSafe, nil }
	for name, reg := range map[string]*telemetry.Registry{"bare": nil, "metered": telemetry.NewRegistry()} {
		f := servedFramework(t, Config{ClipLen: 8, Metrics: reg}, trivial)
		ctx := context.Background()
		n, ready := 0, 0
		step := func() {
			d, err := f.ProcessFrameContext(ctx, frames[n%len(frames)])
			if err != nil {
				t.Fatal(err)
			}
			if d.Ready {
				ready++
			}
			n++
		}
		for i := 0; i < 8; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(40, step); allocs != 0 {
			t.Fatalf("%s: warm ProcessFrameContext allocates %v times a frame, want 0", name, allocs)
		}
		if ready < 40 {
			t.Fatalf("%s: only %d ready frames; the measured path was not the clip path", name, ready)
		}
	}
}

func TestGridDimensionsValidated(t *testing.T) {
	vp := vision.DefaultVPConfig()
	vp.GridH = -1
	ok := func(context.Context, sim.Weather, *tensor.Tensor, bool) (int, error) { return 0, nil }
	det, err := weather.FitFromSim(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServed(Config{VP: vp}, ok, det); err == nil {
		t.Fatal("a negative grid height must be rejected at construction")
	}
}
