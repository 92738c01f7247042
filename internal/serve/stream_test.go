package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"safecross/internal/infer"
	"safecross/internal/nn"
	"safecross/internal/sim"
	"safecross/internal/tensor"
	"safecross/internal/video"
	"safecross/internal/vision"
)

// streamCfg is the SlowFast geometry of the streaming tests: the
// default network at T = 16, so a race-instrumented run stays short.
var streamCfg = video.SlowFastConfig{T: 16, H: 10, W: 16, Alpha: 8, Classes: 2, Lateral: true, Seed: 11}

// streamModels returns a Day and a Rain SlowFast with different
// weights, and the builder that clones them.
func streamModels(t *testing.T) (video.Builder, map[sim.Weather]video.Classifier) {
	t.Helper()
	models := map[sim.Weather]video.Classifier{}
	for i, scene := range []sim.Weather{sim.Day, sim.Rain} {
		cfg := streamCfg
		cfg.Seed += int64(i)
		m, err := video.NewSlowFast(cfg)
		if err != nil {
			t.Fatal(err)
		}
		models[scene] = m
	}
	return video.SlowFastBuilder(streamCfg), models
}

// vpWindows renders a seeded Day world, runs its frames through VP and
// returns n windows of streamCfg.T grids, each one frame later than the
// last, as the clip ring of a framework would hold them.
func vpWindows(t *testing.T, seed int64, n int) [][]float64 {
	t.Helper()
	const prime = 8
	frames := sim.NewWorld(sim.Config{Weather: sim.Day, TruckPresent: true, Seed: seed}).RunFrames(prime + streamCfg.T + n - 1)
	vp := vision.NewPreprocessor(vision.DefaultVPConfig())
	var grids []*vision.Image
	for i, f := range frames {
		g, err := vp.Process(f)
		if err != nil {
			t.Fatal(err)
		}
		if i >= prime {
			grids = append(grids, g)
		}
	}
	out := make([][]float64, n)
	for i := range out {
		clip, err := vision.ClipTensor(grids[i : i+streamCfg.T])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = clip.Data
	}
	return out
}

// streamedWindows sums the windows every worker's streams have seen and
// how many of them re-anchored. Call it only once the server is closed.
func streamedWindows(s *Server) (windows, anchors int) {
	for _, w := range s.workers {
		for _, e := range w.streams.entries {
			windows += e.st.Windows
			anchors += e.st.Anchors
		}
	}
	return windows, anchors
}

// TestStreamedVerdictsMatchForward: six submitters each slide their own
// clip buffer over a seeded sim stream through two workers, switching
// scene half-way; every verdict must equal video.PredictWS on a clone
// of that scene's model.
func TestStreamedVerdictsMatchForward(t *testing.T) {
	const submitters, steps = 6, 32
	builder, models := streamModels(t)
	s, err := New(Config{Workers: 2, MaxBatch: 4, QueueDepth: 64, SLO: time.Minute}, Replicas(builder, models))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		windows := vpWindows(t, int64(20+i), steps)
		refs := map[sim.Weather]video.Classifier{}
		for scene, m := range models {
			if refs[scene], err = video.CloneWeights(builder, m); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			clip := tensor.New(1, streamCfg.T, streamCfg.H, streamCfg.W)
			ws := nn.NewWorkspace()
			for k, win := range windows {
				copy(clip.Data, win)
				scene := sim.Day
				if k >= steps/2 {
					scene = sim.Rain
				}
				v, err := s.Submit(context.Background(), Request{Scene: scene, Clip: clip})
				if err != nil {
					t.Error(err)
					return
				}
				want, err := video.PredictWS(refs[scene], clip, ws)
				if err != nil {
					t.Error(err)
					return
				}
				if v.Label != want {
					t.Errorf("submitter %d window %d (%v): served label %d, full forward %d", i, k, scene, v.Label, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	s.Close()
	windows, anchors := streamedWindows(s)
	if windows != submitters*steps {
		t.Fatalf("streams saw %d windows, want %d", windows, submitters*steps)
	}
	t.Logf("%d of %d windows continued a stream", windows-anchors, windows)
}

// TestStreamContinuesOnOneWorker: one worker sees every window of a
// sliding buffer, so only the first window of each scene anchors.
func TestStreamContinuesOnOneWorker(t *testing.T) {
	const steps = 12
	builder, models := streamModels(t)
	s, err := New(Config{Workers: 1, MaxBatch: 4, SLO: time.Minute}, Replicas(builder, models))
	if err != nil {
		t.Fatal(err)
	}
	clip := tensor.New(1, streamCfg.T, streamCfg.H, streamCfg.W)
	for k, win := range vpWindows(t, 3, steps) {
		copy(clip.Data, win)
		scene := sim.Day
		if k >= steps/2 {
			scene = sim.Rain
		}
		if _, err := s.Submit(context.Background(), Request{Scene: scene, Clip: clip}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if windows, anchors := streamedWindows(s); windows != steps || anchors != 2 {
		t.Fatalf("%d windows with %d anchors, want %d with 2 (one per scene)", windows, anchors, steps)
	}
	if n := len(s.workers[0].streams.entries); n != 1 {
		t.Fatalf("one buffer holds %d streams", n)
	}
}

// notSlowFast hides a model's concrete type, so a worker serves it
// through the batched forward rather than a stream.
type notSlowFast struct{ infer.Model }

// TestStreamedSubmitAllocations: a warm streamed Submit allocates no
// more than the same Submit served by the batched forward, and neither
// misses the workspace.
func TestStreamedSubmitAllocations(t *testing.T) {
	builder, models := streamModels(t)
	windows := vpWindows(t, 5, 64)
	allocs := func(streamed bool) float64 {
		factory := Replicas(builder, models)
		if !streamed {
			inner := factory
			factory = func() (map[sim.Weather]infer.Model, error) {
				ms, err := inner()
				for scene, m := range ms {
					ms[scene] = notSlowFast{m}
				}
				return ms, err
			}
		}
		s, err := New(Config{Workers: 1, MaxBatch: 4, SLO: time.Minute}, factory)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		clip := tensor.New(1, streamCfg.T, streamCfg.H, streamCfg.W)
		ctx := context.Background()
		k := 0
		submit := func() {
			copy(clip.Data, windows[k%len(windows)])
			k++
			if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: clip}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			submit()
		}
		before := s.Stats().WorkspaceMisses
		n := testing.AllocsPerRun(32, submit)
		if grew := s.Stats().WorkspaceMisses - before; grew != 0 {
			t.Fatalf("streamed=%v: %d workspace misses once warm", streamed, grew)
		}
		return n
	}
	batched, streamed := allocs(false), allocs(true)
	t.Logf("allocations per warm Submit: batched %.1f, streamed %.1f", batched, streamed)
	if streamed > batched {
		t.Fatalf("a warm streamed Submit allocates %.1f times, the batched path %.1f", streamed, batched)
	}
}

// TestStreamTableCapacity: more sliding buffers than a worker keeps
// streams for still get correct verdicts, and the table stays at its
// capacity.
func TestStreamTableCapacity(t *testing.T) {
	const buffers, rounds = streamCap + 8, 3
	builder, models := streamModels(t)
	s, err := New(Config{Workers: 1, MaxBatch: 4, SLO: time.Minute}, Replicas(builder, models))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := video.CloneWeights(builder, models[sim.Day])
	if err != nil {
		t.Fatal(err)
	}
	windows := vpWindows(t, 7, buffers+rounds)
	clips := make([]*tensor.Tensor, buffers)
	for i := range clips {
		clips[i] = tensor.New(1, streamCfg.T, streamCfg.H, streamCfg.W)
	}
	ws := nn.NewWorkspace()
	for r := 0; r < rounds; r++ {
		for i, clip := range clips {
			copy(clip.Data, windows[i+r])
			v, err := s.Submit(context.Background(), Request{Scene: sim.Day, Clip: clip})
			if err != nil {
				t.Fatal(err)
			}
			want, err := video.PredictWS(ref, clip, ws)
			if err != nil {
				t.Fatal(err)
			}
			if v.Label != want {
				t.Fatalf("round %d buffer %d: served label %d, full forward %d", r, i, v.Label, want)
			}
		}
	}
	s.Close()
	if n := len(s.workers[0].streams.entries); n != streamCap {
		t.Fatalf("the worker keeps %d streams for %d buffers, want its capacity %d", n, buffers, streamCap)
	}
}
