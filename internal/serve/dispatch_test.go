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

// TestIdleWorkerTakesQueuedClipAtOnce: a clip submitted to an idle
// plane dispatches at once as a batch of one, whatever backlog the
// plane saw before. The latency timer is a minute, so a scheduler that
// held the clip for batch-mates would stall it past the test's 5 s.
func TestIdleWorkerTakesQueuedClipAtOnce(t *testing.T) {
	g := newGate()
	s, err := New(Config{
		Workers:      1,
		MaxBatch:     8,
		BatchLatency: time.Minute,
		SLO:          time.Minute,
	}, gatedFactory(0, g))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Hold the worker with one clip and queue a full batch behind it:
	// the deepest backlog one worker can have on a cold server.
	const queued = 8
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 1+queued; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip()}); err != nil {
				t.Error(err)
			}
		}()
		if i == 0 {
			<-g.started
		}
	}
	waitSubmitted(t, s, 1+queued)
	close(g.release)
	wg.Wait()

	// The plane is idle now: one more clip must not wait for company.
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	v, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip()})
	if err != nil {
		t.Fatalf("clip on an idle plane: %v (stats %+v)", err, s.Stats())
	}
	if v.Timing.Batch != 1 {
		t.Fatalf("clip on an idle plane rode a batch of %d, want 1", v.Timing.Batch)
	}
}

// TestSaturationReusesWorkspaces floods two workers with far more
// producers than they can drain: every request completes, clips
// queued behind busy workers coalesce into multi-clip batches, and the
// workers' workspaces report reuse through the stats façade.
func TestSaturationReusesWorkspaces(t *testing.T) {
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
	if st.Completed != producers*perProducer || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxBatch < 2 {
		t.Fatalf("clips queued behind busy workers never formed a multi-clip batch: %+v", st)
	}
	if st.WorkspaceHits == 0 {
		t.Fatalf("workspaces reported no reuse: hits=%d misses=%d",
			st.WorkspaceHits, st.WorkspaceMisses)
	}
}
