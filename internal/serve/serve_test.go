package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"safecross/internal/dataset"
	"safecross/internal/infer"
	"safecross/internal/nn"
	"safecross/internal/sim"
	"safecross/internal/tensor"
)

// stubModel is a controllable engine model for serving tests: it
// always predicts label, optionally sleeping per clip to simulate
// compute, and — when gate is set — holds the server's first forward
// pass until the test releases it. The unsynchronised forwards counter
// is deliberate — if the server ever shared one replica across
// workers, `go test -race` would flag it.
type stubModel struct {
	label    int
	delay    time.Duration
	gate     *gate
	forwards int
}

func (m *stubModel) Name() string  { return "stub" }
func (m *stubModel) SetTrain(bool) {}

func (m *stubModel) ForwardBatch(xs []*tensor.Tensor, ws *nn.Workspace) ([]*tensor.Tensor, error) {
	m.gate.hold()
	out := make([]*tensor.Tensor, len(xs))
	for i := range xs {
		m.forwards++
		if m.delay > 0 {
			time.Sleep(m.delay)
		}
		out[i] = tensor.New(2)
		out[i].Data[m.label] = 1
	}
	return out, nil
}

// gate lets a test hold the server's first forward pass: that pass
// closes started and blocks until the test closes release. Later
// passes, on any worker, run straight through.
type gate struct {
	once             sync.Once
	started, release chan struct{}
}

func newGate() *gate {
	return &gate{started: make(chan struct{}), release: make(chan struct{})}
}

// hold blocks the first caller until release; a nil gate never holds.
func (g *gate) hold() {
	if g == nil {
		return
	}
	first := false
	g.once.Do(func() {
		first = true
		close(g.started)
	})
	if first {
		<-g.release
	}
}

// stubFactory returns fresh per-worker replicas predicting safe for
// day and danger for rain/snow, with the given per-clip delay.
func stubFactory(delay time.Duration) ModelFactory { return gatedFactory(delay, nil) }

// gatedFactory is stubFactory with every replica sharing one gate.
func gatedFactory(delay time.Duration, g *gate) ModelFactory {
	return func() (map[sim.Weather]infer.Model, error) {
		return map[sim.Weather]infer.Model{
			sim.Day:  &stubModel{label: dataset.ClassSafe, delay: delay, gate: g},
			sim.Rain: &stubModel{label: dataset.ClassDanger, delay: delay, gate: g},
			sim.Snow: &stubModel{label: dataset.ClassDanger, delay: delay, gate: g},
		}, nil
	}
}

// waitSubmitted polls Stats until n requests have been admitted.
func waitSubmitted(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Submitted < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d submissions (have %d)", n, s.Stats().Submitted)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func testClip() *tensor.Tensor { return tensor.New(1, 4, 2, 2) }

// slowFastBytes mirrors the manifest total every serve worker
// registers per scene (pipeswitch.SafeCrossSlowFast), for sizing
// memory-pressure budgets in tests.
const slowFastModelBytes = 75 << 20

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "defaults", cfg: Config{}.withDefaults()},
		{name: "negative-workers", cfg: Config{Workers: -1, MaxBatch: 1, QueueDepth: 1}, wantErr: true},
		{name: "negative-batch", cfg: Config{Workers: 1, MaxBatch: -2, QueueDepth: 1}, wantErr: true},
		{name: "negative-queue", cfg: Config{Workers: 1, MaxBatch: 1, QueueDepth: -1}, wantErr: true},
		{name: "negative-slo", cfg: Config{Workers: 1, MaxBatch: 1, QueueDepth: 1, SLO: -time.Second}, wantErr: true},
		{name: "negative-aging", cfg: Config{Workers: 1, MaxBatch: 1, QueueDepth: 1, AgingBound: -time.Second}, wantErr: true},
		{name: "negative-memory", cfg: Config{Workers: 1, MaxBatch: 1, QueueDepth: 1, WorkerMemory: -1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestSubmitDeliversVerdictWithTiming(t *testing.T) {
	s, err := New(Config{Workers: 1}, stubFactory(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	v, err := s.Submit(context.Background(), Request{Scene: sim.Day, Clip: testClip()})
	if err != nil {
		t.Fatal(err)
	}
	if v.Label != dataset.ClassSafe || !v.Safe {
		t.Fatalf("verdict = %+v, want safe", v)
	}
	if v.Timing.Batch != 1 || v.Timing.Worker != 0 {
		t.Fatalf("timing batch/worker = %+v", v.Timing)
	}
	if v.Timing.VirtualCompute <= 0 {
		t.Fatalf("no virtual compute charged: %+v", v.Timing)
	}
	if v.Timing.Switch <= 0 {
		t.Fatalf("first batch on a cold worker must pay a load: %+v", v.Timing)
	}
	if !v.Timing.SLOMet {
		t.Fatalf("default SLO violated in an idle server: %+v", v.Timing)
	}

	st := s.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Batches != 1 || st.Switches != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.VirtualMakespan <= 0 {
		t.Fatalf("virtual makespan not tracked: %+v", st)
	}
	if st.RoutineCompleted != 1 || st.CriticalCompleted != 0 {
		t.Fatalf("class accounting: %+v", st)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(Config{Workers: 1}, stubFactory(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Submit(ctx, Request{Scene: sim.Day}); err == nil {
		t.Fatal("expected nil-clip error")
	}
	if _, err := s.Submit(ctx, Request{Scene: sim.Weather(99), Clip: testClip()}); err == nil {
		t.Fatal("expected unknown-scene error")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Submit(cancelled, Request{Scene: sim.Day, Clip: testClip()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled for a pre-cancelled ctx", err)
	}
}

// TestDynamicBatchingCoalesces checks that same-scene requests queued
// behind a busy worker ride one batched forward pass.
func TestDynamicBatchingCoalesces(t *testing.T) {
	g := newGate()
	s, err := New(Config{
		Workers:  1,
		MaxBatch: 4,
		// Only MaxBatch may seal the four queued requests: a short
		// latency timer would seal whichever of them had arrived when
		// it fired, and four goroutines need not start within a few
		// milliseconds of each other on a loaded host.
		BatchLatency: 10 * time.Second,
		SLO:          10 * time.Second,
	}, gatedFactory(30*time.Millisecond, g))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	// Occupy the single worker: the gate holds its first pass.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip()}); err != nil {
			t.Error(err)
		}
	}()
	<-g.started

	// Four more arrive while the worker is busy: MaxBatch seals them
	// into one batch that runs as a single forward pass.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip()})
			if err != nil {
				t.Error(err)
				return
			}
			if v.Timing.Batch < 2 {
				t.Errorf("expected a coalesced batch, got size %d", v.Timing.Batch)
			}
		}()
	}
	waitSubmitted(t, s, 5)
	close(g.release)
	wg.Wait()

	st := s.Stats()
	if st.Completed != 5 {
		t.Fatalf("completed %d, want 5", st.Completed)
	}
	if st.MaxBatch != 4 {
		t.Fatalf("max batch %d, want 4", st.MaxBatch)
	}
	if st.Batches != 2 {
		t.Fatalf("batches %d, want 2 (1 + coalesced 4)", st.Batches)
	}
}

// TestQueueFullRejects checks explicit admission backpressure: once
// QueueDepth requests wait un-dispatched, further Routine submissions
// fail fast with ErrQueueFull instead of blocking.
func TestQueueFullRejects(t *testing.T) {
	s, err := New(Config{
		Workers:    1,
		MaxBatch:   1,
		QueueDepth: 2,
		SLO:        10 * time.Second,
	}, stubFactory(60*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	submit := func() {
		defer wg.Done()
		if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip()}); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go submit() // dispatched to the worker, leaves the queue
	time.Sleep(15 * time.Millisecond)
	wg.Add(2)
	go submit() // queued
	go submit() // queued — admission now full
	time.Sleep(15 * time.Millisecond)

	if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip()}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	wg.Wait()
	if st := s.Stats(); st.Rejected != 1 || st.Completed != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDeadlineShedding checks SLO-aware backpressure: a request whose
// default deadline lapses while queued is rejected before inference.
func TestDeadlineShedding(t *testing.T) {
	s, err := New(Config{
		Workers:  1,
		MaxBatch: 1,
		SLO:      20 * time.Millisecond,
	}, stubFactory(60*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Dispatched immediately; completes late (SLO violated) but
		// still gets its verdict.
		if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip()}); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // occupy the worker

	// Queued behind a 60ms pass with a 20ms budget: the scheduler must
	// shed it at dispatch time, before inference.
	_, err = s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip()})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	wg.Wait()
	if st := s.Stats(); st.Expired != 1 || st.Completed != 1 || st.SLOViolations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCtxDeadlineBoundsQueueWait checks that a context deadline acts
// as the request deadline: queued past it, the submitter gets a
// deadline error (from ctx or the scheduler's shed, whichever wins).
func TestCtxDeadlineBoundsQueueWait(t *testing.T) {
	s, err := New(Config{Workers: 1, MaxBatch: 1, SLO: 10 * time.Second}, stubFactory(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), Request{Scene: sim.Day, Clip: testClip()}); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // occupy the worker

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err = s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip()})
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline error", err)
	}
	wg.Wait()
	st := s.Stats()
	if st.Cancelled+st.Expired != 1 {
		t.Fatalf("deadline must be accounted exactly once: %+v", st)
	}
}

// TestCtxCancelDropsQueuedRequest checks mid-queue cancellation: the
// submitter returns immediately with ctx.Err(), the request never
// reaches a worker, and its admission slot is freed.
func TestCtxCancelDropsQueuedRequest(t *testing.T) {
	s, err := New(Config{
		Workers:    1,
		MaxBatch:   1,
		QueueDepth: 2,
		SLO:        10 * time.Second,
	}, stubFactory(60*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), Request{Scene: sim.Day, Clip: testClip()}); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(15 * time.Millisecond) // occupy the worker

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, Request{Scene: sim.Rain, Clip: testClip()})
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it queue
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled submit did not return promptly")
	}

	// The freed slot (and the worker) must accept new work: both
	// remaining QueueDepth slots are usable again.
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), Request{Scene: sim.Day, Clip: testClip()}); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), Request{Scene: sim.Day, Clip: testClip()}); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	st := s.Stats()
	if st.Cancelled != 1 {
		t.Fatalf("cancelled = %d, want 1: %+v", st.Cancelled, st)
	}
	if st.Completed != 3 {
		t.Fatalf("completed = %d, want 3: %+v", st.Completed, st)
	}
	if got := st.Completed + st.Expired + st.Failed + st.Cancelled + st.Shed; got != st.Submitted {
		t.Fatalf("accounting leak: %d of %d submitted", got, st.Submitted)
	}
	// The rain model was never needed: the cancelled request must not
	// have triggered a load on the single worker.
	if st.Switches != 1 {
		t.Fatalf("switches = %d, want 1 (cancelled request must not load its model)", st.Switches)
	}
}

// TestWarmRouting checks that the scheduler pins scenes to workers:
// after day and rain have each claimed a worker, alternating traffic
// never loads again.
func TestWarmRouting(t *testing.T) {
	s, err := New(Config{Workers: 2, MaxBatch: 1, SLO: 10 * time.Second}, stubFactory(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	scenes := []sim.Weather{sim.Day, sim.Rain, sim.Day, sim.Rain, sim.Day, sim.Rain}
	for i, scene := range scenes {
		v, err := s.Submit(ctx, Request{Scene: scene, Clip: testClip()})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i >= 2 && v.Timing.Switch != 0 {
			t.Fatalf("submit %d (%v) paid a load on a warm fleet: %+v", i, scene, v.Timing)
		}
	}
	st := s.Stats()
	if st.Switches != 2 {
		t.Fatalf("switches = %d, want 2 (one per scene)", st.Switches)
	}
	if st.WarmBatches != st.Batches-2 {
		t.Fatalf("warm batches = %d of %d, want all but the first two", st.WarmBatches, st.Batches)
	}
	if st.Evictions != 0 || st.Reloads != 0 {
		t.Fatalf("no memory pressure, yet evictions=%d reloads=%d", st.Evictions, st.Reloads)
	}
}

// TestEvictionUnderMemoryPressure drives a single worker whose budget
// fits one model through three scenes: every scene change must evict
// the resident model, and returning to an evicted scene must count as
// a reload that pays a real PipeSwitch load.
func TestEvictionUnderMemoryPressure(t *testing.T) {
	s, err := New(Config{
		Workers:      1,
		MaxBatch:     1,
		SLO:          10 * time.Second,
		WorkerMemory: slowFastModelBytes + (1 << 20), // fits exactly one model
	}, stubFactory(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	for i, scene := range []sim.Weather{sim.Day, sim.Rain, sim.Day} {
		v, err := s.Submit(ctx, Request{Scene: scene, Clip: testClip()})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if v.Timing.Switch <= 0 {
			t.Fatalf("submit %d (%v): capacity-1 worker must load every scene change: %+v", i, scene, v.Timing)
		}
		if i > 0 && v.Timing.Evicted != 1 {
			t.Fatalf("submit %d (%v): expected one eviction, got %+v", i, scene, v.Timing)
		}
	}
	st := s.Stats()
	if st.Completed != 3 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Evictions < 2 {
		t.Fatalf("evictions = %d, want ≥2", st.Evictions)
	}
	if st.Reloads != 1 {
		t.Fatalf("reloads = %d, want 1 (day came back)", st.Reloads)
	}
	if st.Switches != 3 {
		t.Fatalf("switches = %d, want 3 (no residency survives a capacity-1 budget)", st.Switches)
	}
}

// TestResidencySurvivesWithinBudget is the counterpart: a budget that
// holds all three scene models never evicts, so cycling scenes on one
// worker loads each model exactly once.
func TestResidencySurvivesWithinBudget(t *testing.T) {
	s, err := New(Config{
		Workers:      1,
		MaxBatch:     1,
		SLO:          10 * time.Second,
		WorkerMemory: 4 * slowFastModelBytes,
	}, stubFactory(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	scenes := []sim.Weather{sim.Day, sim.Rain, sim.Snow, sim.Day, sim.Rain, sim.Snow}
	for i, scene := range scenes {
		v, err := s.Submit(ctx, Request{Scene: scene, Clip: testClip()})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i >= 3 && v.Timing.Switch != 0 {
			t.Fatalf("submit %d (%v): resident model re-bind must be free: %+v", i, scene, v.Timing)
		}
	}
	st := s.Stats()
	if st.Switches != 3 || st.Evictions != 0 || st.Reloads != 0 {
		t.Fatalf("stats = %+v, want 3 loads and no pressure", st)
	}
}

// TestCriticalDispatchesBeforeRoutine saturates a single worker, then
// queues routine and critical requests together: every critical
// request must complete before any of the routine ones, and the
// per-class queue-wait percentiles must reflect the ordering.
func TestCriticalDispatchesBeforeRoutine(t *testing.T) {
	g := newGate()
	s, err := New(Config{
		Workers:      1,
		MaxBatch:     1,
		BatchLatency: time.Millisecond,
		QueueDepth:   64,
		SLO:          10 * time.Second,
		AgingBound:   10 * time.Second, // aging out of the way
	}, gatedFactory(20*time.Millisecond, g))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip()}); err != nil {
			t.Error(err)
		}
	}()
	<-g.started // the gate holds the worker busy

	// While the worker is busy: 3 routine, then 3 critical. Despite
	// arriving later, the critical ones must be served first.
	var mu sync.Mutex
	var order []Priority
	submit := func(prio Priority) {
		defer wg.Done()
		if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip(), Priority: prio}); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		order = append(order, prio)
		mu.Unlock()
	}
	wg.Add(3)
	for i := 0; i < 3; i++ {
		go submit(Routine)
	}
	waitSubmitted(t, s, 4) // routine requests are queued first
	wg.Add(3)
	for i := 0; i < 3; i++ {
		go submit(Critical)
	}
	waitSubmitted(t, s, 7)
	close(g.release)
	wg.Wait()

	if len(order) != 6 {
		t.Fatalf("completions = %d, want 6", len(order))
	}
	for i, prio := range order[:3] {
		if prio != Critical {
			t.Fatalf("completion %d was %v; all critical requests must finish first (order %v)", i, prio, order)
		}
	}
	st := s.Stats()
	if st.CriticalCompleted != 3 || st.RoutineCompleted != 4 {
		t.Fatalf("class accounting: %+v", st)
	}
	if st.CriticalQueueP95 >= st.RoutineQueueP95 {
		t.Fatalf("critical p95 queue wait %v not below routine %v", st.CriticalQueueP95, st.RoutineQueueP95)
	}
}

// TestAgingPreventsRoutineStarvation parks one routine request behind
// a busy worker and a stream of critical arrivals: once the routine
// request has aged past AgingBound, it must dispatch ahead of younger
// critical traffic instead of starving.
func TestAgingPreventsRoutineStarvation(t *testing.T) {
	s, err := New(Config{
		Workers:      1,
		MaxBatch:     1,
		BatchLatency: time.Millisecond,
		QueueDepth:   64,
		SLO:          10 * time.Second,
		AgingBound:   15 * time.Millisecond,
	}, stubFactory(40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip()}); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // occupy the worker (40ms pass)

	routineDone := make(chan time.Duration, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip()}); err != nil {
			t.Error(err)
			return
		}
		routineDone <- time.Since(start)
	}()
	time.Sleep(5 * time.Millisecond) // routine is queued

	// Critical requests keep arriving. By the time the worker frees
	// (~25ms after the routine queued), the routine request has aged
	// past the 15ms bound and must beat them to the worker.
	criticalStarted := make(chan struct{})
	var criticalWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		criticalWG.Add(1)
		go func(i int) {
			defer criticalWG.Done()
			if i == 0 {
				close(criticalStarted)
			}
			if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip(), Priority: Critical}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	<-criticalStarted

	wg.Wait()
	select {
	case wait := <-routineDone:
		// Served in the first post-aging slot: one in-flight pass
		// (40ms) plus its own (40ms) plus slack — far below the
		// starvation case of waiting out all four critical passes.
		if wait > 120*time.Millisecond {
			t.Fatalf("aged routine request waited %v; aging failed to bound starvation", wait)
		}
	case <-time.After(time.Second):
		t.Fatal("routine request starved")
	}
	criticalWG.Wait()

	st := s.Stats()
	if st.Aged < 1 {
		t.Fatalf("aged = %d, want ≥1: %+v", st.Aged, st)
	}
}

// TestCriticalShedsRoutineUnderFullQueue fills the admission queue
// with routine requests, then submits a critical one: it must be
// admitted by shedding a queued routine request, which gets
// ErrQueueFull. A second critical submission with only critical
// requests queued is rejected outright.
func TestCriticalShedsRoutineUnderFullQueue(t *testing.T) {
	s, err := New(Config{
		Workers:    1,
		MaxBatch:   1,
		QueueDepth: 2,
		SLO:        10 * time.Second,
		AgingBound: 10 * time.Second, // nothing ages into protection
	}, stubFactory(80*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip()}); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(15 * time.Millisecond) // occupy the worker

	// Fill the admission queue: one routine (the shed victim-to-be) and
	// one critical.
	shedErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip()}); err != nil {
			shedErr <- err
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip(), Priority: Critical}); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(15 * time.Millisecond) // both queued — admission full

	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip(), Priority: Critical}); err != nil {
			t.Errorf("critical submission must be admitted by shedding: %v", err)
		}
	}()
	select {
	case err := <-shedErr:
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("shed routine request got %v, want ErrQueueFull", err)
		}
	case <-time.After(time.Second):
		t.Fatal("no routine request was shed for the critical admission")
	}

	// Queue is full again, now holding only critical requests; another
	// critical submission finds no routine victim and is rejected.
	if _, err := s.Submit(ctx, Request{Scene: sim.Day, Clip: testClip(), Priority: Critical}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull when no routine victim exists", err)
	}
	wg.Wait()

	st := s.Stats()
	if st.Shed != 1 {
		t.Fatalf("shed = %d, want 1: %+v", st.Shed, st)
	}
	if st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1: %+v", st.Rejected, st)
	}
	if got := st.Completed + st.Expired + st.Failed + st.Cancelled + st.Shed; got != st.Submitted {
		t.Fatalf("accounting leak: %d of %d submitted", got, st.Submitted)
	}
}

func TestCloseRejectsAndIsIdempotent(t *testing.T) {
	s, err := New(Config{Workers: 1}, stubFactory(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := s.Submit(context.Background(), Request{Scene: sim.Day, Clip: testClip()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestCloseDuringTraffic checks that shutdown under load leaves no
// submitter hanging: every in-flight request ends in a verdict or an
// explicit error.
func TestCloseDuringTraffic(t *testing.T) {
	s, err := New(Config{Workers: 2, MaxBatch: 4, SLO: 10 * time.Second}, stubFactory(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		scene := sim.AllWeathers()[i%3]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := s.Submit(ctx, Request{Scene: scene, Clip: testClip()}); err != nil {
					if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrQueueFull) {
						t.Errorf("unexpected error: %v", err)
					}
					if errors.Is(err, ErrClosed) {
						return
					}
				}
			}
		}()
	}
	time.Sleep(25 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // returning at all proves no silent drop hung a submitter

	st := s.Stats()
	if got := st.Completed + st.Expired + st.Failed + st.Cancelled + st.Shed; got != st.Submitted {
		t.Fatalf("accounting leak: completed+expired+failed+cancelled+shed = %d, submitted = %d", got, st.Submitted)
	}
}

// TestBatchedMultiGPUBeatsSingleGPUBaseline is the acceptance
// comparison: 4 simulated intersections served by a batched 4-GPU
// fleet must achieve strictly higher clip throughput — measured in
// deterministic virtual GPU time — than the per-clip single-GPU
// baseline, with every accepted request receiving a verdict.
func TestBatchedMultiGPUBeatsSingleGPUBaseline(t *testing.T) {
	const intersections, perIntersection = 4, 12

	ctx := context.Background()
	run := func(cfg Config) Stats {
		s, err := New(cfg, stubFactory(200*time.Microsecond))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var wg sync.WaitGroup
		for i := 0; i < intersections; i++ {
			scene := sim.AllWeathers()[i%3]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < perIntersection; j++ {
					if _, err := s.Submit(ctx, Request{Scene: scene, Clip: testClip()}); err != nil {
						t.Errorf("submit: %v", err)
					}
				}
			}()
		}
		wg.Wait()
		return s.Stats()
	}

	baseline := run(Config{Workers: 1, MaxBatch: 1, QueueDepth: 256, SLO: time.Minute})
	served := run(Config{Workers: 4, MaxBatch: 8, QueueDepth: 256, SLO: time.Minute})

	total := intersections * perIntersection
	for name, st := range map[string]Stats{"baseline": baseline, "served": served} {
		if st.Completed != total || st.Expired != 0 || st.Failed != 0 {
			t.Fatalf("%s dropped requests: %+v", name, st)
		}
	}
	if served.VirtualThroughput() <= baseline.VirtualThroughput() {
		t.Fatalf("batched 4-GPU fleet (%.1f clips/s virtual) not faster than per-clip single GPU (%.1f clips/s virtual)",
			served.VirtualThroughput(), baseline.VirtualThroughput())
	}
	if served.VirtualMakespan >= baseline.VirtualMakespan {
		t.Fatalf("served makespan %v not below baseline %v", served.VirtualMakespan, baseline.VirtualMakespan)
	}
}
