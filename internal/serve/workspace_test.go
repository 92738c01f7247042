package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"safecross/internal/infer"
	"safecross/internal/nn"
	"safecross/internal/sim"
	"safecross/internal/tensor"
	"safecross/internal/video"
)

// plugModel holds a worker busy: each forward pass reports on running,
// then waits for a token on turn. It uses no scratch.
type plugModel struct {
	running chan<- struct{}
	turn    <-chan struct{}
}

func (plugModel) Name() string  { return "plug" }
func (plugModel) SetTrain(bool) {}

func (m plugModel) ForwardBatch(xs []*tensor.Tensor, _ *nn.Workspace) ([]*tensor.Tensor, error) {
	m.running <- struct{}{}
	<-m.turn
	out := make([]*tensor.Tensor, len(xs))
	for i := range out {
		out[i] = tensor.New(2)
	}
	return out, nil
}

// TestWorkerWorkspaceReservedForMaxBatch drives real SlowFast batches
// of 1, MaxBatch, then 2…MaxBatch−1 clips through two workers: after a
// worker's first batch its scratch slab holds a MaxBatch pass, so no
// later batch of any size makes a workspace miss. Each round plugs
// both workers with a Rain and a Snow pass, queues the Day clips
// behind them (so they seal as one batch), and unplugs one worker to
// take it — the Rain worker on even rounds, the Snow worker on odd
// ones, so the growing sizes land on both workers.
func TestWorkerWorkspaceReservedForMaxBatch(t *testing.T) {
	const maxBatch = 5
	running := make(chan struct{})
	turnRain, turnSnow := make(chan struct{}), make(chan struct{})
	cfg := video.SlowFastConfig{T: 16, H: 10, W: 16, Alpha: 8, Classes: 2, Lateral: true, Seed: 7}
	factory := func() (map[sim.Weather]infer.Model, error) {
		day, err := video.SlowFastBuilder(cfg)()
		if err != nil {
			return nil, err
		}
		return map[sim.Weather]infer.Model{
			sim.Day:  day,
			sim.Rain: plugModel{running: running, turn: turnRain},
			sim.Snow: plugModel{running: running, turn: turnSnow},
		}, nil
	}
	s, err := New(Config{
		Workers:      2,
		MaxBatch:     maxBatch,
		BatchLatency: time.Minute, // batches seal at MaxBatch or when a worker frees
		QueueDepth:   64,
		SLO:          time.Minute,
		AgingBound:   time.Minute,
		WorkerMemory: 4 * slowFastModelBytes,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(3))
	ctx := context.Background()
	sizes := []int{1, maxBatch}
	for n := 2; n < maxBatch; n++ {
		sizes = append(sizes, n)
	}
	submitted := 0
	served := map[int]bool{} // workers that have run a Day batch
	for round, n := range sizes {
		var plugs, days sync.WaitGroup
		submit := func(wg *sync.WaitGroup, scene sim.Weather, check func(Verdict)) {
			wg.Add(1)
			clip := tensor.RandnTensor(rng, 1, 1, cfg.T, cfg.H, cfg.W)
			go func() {
				defer wg.Done()
				v, err := s.Submit(ctx, Request{Scene: scene, Clip: clip})
				if err != nil {
					t.Error(err)
					return
				}
				check(v)
			}()
		}
		submit(&plugs, sim.Rain, func(Verdict) {})
		submit(&plugs, sim.Snow, func(Verdict) {})
		<-running
		<-running // both workers plugged

		var mu sync.Mutex
		dayWorkers := map[int]bool{}
		for i := 0; i < n; i++ {
			submit(&days, sim.Day, func(v Verdict) {
				if v.Timing.Batch != n {
					t.Errorf("round %d: Day clip rode a batch of %d, want %d", round, v.Timing.Batch, n)
				}
				mu.Lock()
				dayWorkers[v.Timing.Worker] = true
				mu.Unlock()
			})
		}
		submitted += 2 + n
		waitSubmitted(t, s, submitted)

		before := s.Stats().WorkspaceMisses
		first, second := turnRain, turnSnow
		if round%2 == 1 {
			first, second = turnSnow, turnRain
		}
		first <- struct{}{} // that worker frees first and takes the Day batch
		days.Wait()
		second <- struct{}{}
		plugs.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if len(dayWorkers) != 1 {
			t.Fatalf("round %d: Day batch split across workers %v", round, dayWorkers)
		}
		for w := range dayWorkers {
			grew := s.Stats().WorkspaceMisses - before
			if served[w] && grew != 0 {
				t.Fatalf("round %d: worker %d made %d workspace misses on a batch of %d after its first batch",
					round, w, grew, n)
			}
			served[w] = true
		}
	}
	if len(served) != 2 {
		t.Fatalf("Day batches ran on workers %v, want both", served)
	}

	// The counters the workers export are exactly their workspaces'.
	st := s.Stats()
	gets, misses := 0, 0
	for _, w := range s.workers {
		gets += w.ws.Gets
		misses += w.ws.Misses
		if w.ws.Size() == 0 {
			t.Fatalf("worker %d never sized its slab", w.id)
		}
	}
	if st.WorkspaceHits+st.WorkspaceMisses != gets || st.WorkspaceMisses != misses {
		t.Fatalf("exported hits %d + misses %d, want gets %d and misses %d",
			st.WorkspaceHits, st.WorkspaceMisses, gets, misses)
	}
	if st.WorkspaceHits == 0 {
		t.Fatal("no workspace hits exported")
	}
}
