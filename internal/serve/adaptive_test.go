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
)

func TestAdaptTarget(t *testing.T) {
	const heavy = 10 * time.Millisecond // compute p50 well above the gate
	const cheap = 100 * time.Microsecond
	const latency = 2 * time.Millisecond

	tests := []struct {
		name                 string
		cur, queued, workers int
		maxBatch             int
		p50                  time.Duration
		want                 int
	}{
		{name: "idle-plane-stays-at-one", cur: 1, queued: 0, workers: 4, maxBatch: 8, p50: heavy, want: 1},
		{name: "burst-grows-straight-to-demand", cur: 1, queued: 16, workers: 4, maxBatch: 8, p50: heavy, want: 4},
		{name: "cold-histogram-allows-growth", cur: 1, queued: 16, workers: 4, maxBatch: 8, p50: 0, want: 4},
		{name: "growth-clamped-to-max-batch", cur: 1, queued: 100, workers: 2, maxBatch: 8, p50: heavy, want: 8},
		{name: "cheap-compute-gates-growth", cur: 2, queued: 16, workers: 4, maxBatch: 8, p50: cheap, want: 2},
		{name: "cheap-compute-still-shrinks", cur: 4, queued: 0, workers: 4, maxBatch: 8, p50: cheap, want: 2},
		{name: "shrink-decays-half-the-gap", cur: 8, queued: 4, workers: 4, maxBatch: 8, p50: heavy, want: 4},
		{name: "shrink-bottoms-out-at-one", cur: 2, queued: 0, workers: 4, maxBatch: 8, p50: heavy, want: 1},
		{name: "steady-demand-holds", cur: 3, queued: 12, workers: 4, maxBatch: 8, p50: heavy, want: 3},
		{name: "max-batch-one-disables-batching", cur: 1, queued: 50, workers: 1, maxBatch: 1, p50: heavy, want: 1},
		{name: "zero-workers-defensive", cur: 1, queued: 5, workers: 0, maxBatch: 8, p50: heavy, want: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := adaptTarget(tt.cur, tt.queued, tt.workers, tt.maxBatch, tt.p50, latency)
			if got != tt.want {
				t.Fatalf("adaptTarget(cur=%d queued=%d workers=%d max=%d p50=%v) = %d, want %d",
					tt.cur, tt.queued, tt.workers, tt.maxBatch, tt.p50, got, tt.want)
			}
		})
	}

	// A deep queue must converge upward and a drained one back down.
	target := 1
	for i := 0; i < 3; i++ {
		target = adaptTarget(target, 32, 4, 8, heavy, latency)
	}
	if target != 8 {
		t.Fatalf("sustained backlog: target = %d, want 8", target)
	}
	for i := 0; i < 10; i++ {
		target = adaptTarget(target, 0, 4, 8, heavy, latency)
	}
	if target != 1 {
		t.Fatalf("drained queue: target = %d, want 1", target)
	}
}

// batchStub is an engine model whose forward draws scratch from the
// worker's workspace — unlike stubModel, it moves the workspace
// hit/miss counters the way the real classifiers do.
type batchStub struct {
	label int
	delay time.Duration
}

func (m *batchStub) Name() string  { return "batch-stub" }
func (m *batchStub) SetTrain(bool) {}

func (m *batchStub) ForwardBatch(xs []*tensor.Tensor, ws *nn.Workspace) ([]*tensor.Tensor, error) {
	defer ws.Reset()
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	out := make([]*tensor.Tensor, len(xs))
	for i := range xs {
		scratch := ws.Get(2)
		scratch.Data[m.label] = 1
		l := tensor.New(2)
		copy(l.Data, scratch.Data)
		out[i] = l
	}
	return out, nil
}

// TestAdaptiveBatchTargetGrowsUnderSaturation floods two workers with
// far more producers than they can drain: the scheduler's adaptive
// target must climb above 1 while the backlog lasts, and the workers'
// workspaces must report reuse through the stats façade.
func TestAdaptiveBatchTargetGrowsUnderSaturation(t *testing.T) {
	const producers, perProducer = 32, 4

	s, err := New(Config{
		Workers:      2,
		MaxBatch:     8,
		BatchLatency: 2 * time.Millisecond,
		QueueDepth:   256,
		SLO:          30 * time.Second,
	}, func() (map[sim.Weather]infer.Model, error) {
		return map[sim.Weather]infer.Model{
			sim.Day: &batchStub{label: 1, delay: 2 * time.Millisecond},
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perProducer; j++ {
				if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip()}); err != nil {
					t.Errorf("submit: %v", err)
				}
			}
		}()
	}

	wg.Wait()

	st := s.Stats()
	// With 32 blocked producers on 2 workers the demand-sized target
	// must have left 1 at some point; the high-water gauge keeps that
	// visible after the drained queue decays the live target back.
	if st.BatchTargetMax <= 1 {
		t.Fatalf("batch target never grew under saturation: %+v", st)
	}
	if st.Completed != producers*perProducer || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxBatch < 2 {
		t.Fatalf("adaptive sealing never formed a multi-clip batch: %+v", st)
	}
	if st.WorkspaceHits == 0 {
		t.Fatalf("workspaces reported no reuse: hits=%d misses=%d",
			st.WorkspaceHits, st.WorkspaceMisses)
	}
}
