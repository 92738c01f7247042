package serve

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"safecross/internal/sim"
	"safecross/internal/telemetry"
)

// pending request states. Exactly one party wins the CAS away from
// statePending, delivers the outcome (or returns ctx.Err()), and
// settles the admission slot; everyone else drops the request
// silently.
const (
	statePending   int32 = iota // queued, owned by the scheduler
	stateClaimed                // claimed for dispatch or rejection
	stateCancelled              // submitter's context fired while queued
	stateShed                   // pushed out by a Critical admission
)

// pending is one in-flight request with its bookkeeping instants.
type pending struct {
	req      Request
	prio     Priority
	deadline time.Duration

	// state arbitrates ownership between the scheduler, the
	// submitter's context watcher, and Critical shedders.
	state atomic.Int32
	// aged marks a Routine request promoted to Critical dispatch by
	// the aging rule (written by the scheduler before dispatch).
	aged bool

	submitted  time.Time // Submit accepted it
	bucketed   time.Time // scheduler placed it in a scene bucket
	dispatched time.Time // scheduler handed its batch to a worker

	// tr is the request's trace (nil when tracing is off). Whichever
	// party settles the request records its terminal event; the worker
	// additionally records the stage spans before delivery.
	tr *telemetry.Trace

	done chan outcome // capacity 1; exactly one outcome is ever sent
}

// critical reports the request's effective class at dispatch time.
func (p *pending) critical() bool { return p.prio == Critical || p.aged }

// outcome is a verdict or an explicit rejection.
type outcome struct {
	v   Verdict
	err error
}

// batch is a sealed group of same-scene, same-class requests bound
// for one batched forward pass.
type batch struct {
	scene sim.Weather
	reqs  []*pending
	// critical is the batch's admission class; promoted marks a
	// Routine batch raised to Critical dispatch by the aging rule.
	critical bool
	promoted bool
	warm     bool // assigned worker already held the scene's model
}

// urgent reports whether the batch dispatches in the Critical tier.
func (b *batch) urgent() bool { return b.critical || b.promoted }

// idleNote is a worker's report that it is free, with its resident
// model set so the scheduler can route warm under memory pressure, and
// the worker's previous batch, fully delivered, for the scheduler to
// reuse (nil on the worker's first report).
type idleNote struct {
	worker   int
	resident sceneSet
	spent    *batch
}

// sceneSet is a set of scenes as a bitmask, bit w for sim.Weather w.
// Every scene this plane serves is below 64; a scene that were not
// would only ever read as absent, which routes it cold.
type sceneSet uint64

func (m sceneSet) has(w sim.Weather) bool { return m&(1<<uint(w)) != 0 }

func (m *sceneSet) add(w sim.Weather) { *m |= 1 << uint(w) }

// Server is the inference-serving plane.
type Server struct {
	cfg     Config
	scenes  map[sim.Weather]bool
	workers []*worker

	// registry backs all activity counters and latency histograms —
	// Config.Metrics when set, else a private registry — and metrics
	// holds the resolved handles. tracer (optional) samples per-request
	// stage spans.
	registry *telemetry.Registry
	metrics  serveMetrics
	// scene holds the per-scene labelled series (requests, queue
	// wait), resolved once at construction.
	scene  map[sim.Weather]sceneSeries
	tracer *telemetry.Tracer

	// wake nudges the scheduler after intake grows; capacity 1, sends
	// never block.
	wake   chan struct{}
	idleCh chan idleNote
	stopCh chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool
	// stopped marks the scheduler/worker teardown as begun; Drain sets
	// closed without stopped (admission off, machinery still flushing).
	stopped bool
	// intake is the admission queue handed to the scheduler; appends
	// never block, so Submit can run entirely under mu.
	intake []*pending
	// inflight counts requests admitted but not yet claimed (for
	// dispatch, cancellation, or shedding); QueueDepth bounds it, so
	// admission backpressure covers the scene buckets and the ready
	// queue, not just the intake slice.
	inflight int
	// routine indexes admitted Routine requests still owned by the
	// scheduler — the shed candidates for a Critical admission under a
	// full queue.
	routine map[*pending]struct{}
}

// New builds and starts a serving plane: cfg.Workers simulated GPUs,
// each with a private model replica set from the factory, a finite
// memory budget, and a per-scene PipeSwitch manager, plus the
// batching scheduler.
func New(cfg Config, factory ModelFactory) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, fmt.Errorf("serve: nil model factory")
	}
	reg := cfg.Metrics
	if reg == nil {
		// Stats() is computed from the metrics, so an unwired server
		// still needs them — back them with a private registry.
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		cfg:      cfg,
		scenes:   make(map[sim.Weather]bool),
		registry: reg,
		metrics:  newServeMetrics(reg),
		tracer:   cfg.Tracer,
		wake:     make(chan struct{}, 1),
		// Buffered past the worst case (one stale note plus one
		// post-shutdown note per worker) so workers never block on it.
		idleCh:  make(chan idleNote, 2*cfg.Workers),
		stopCh:  make(chan struct{}),
		routine: make(map[*pending]struct{}),
	}
	reg.GaugeFunc("serve_inflight", "requests admitted but not yet dispatched or settled", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.inflight)
	})
	for i := 0; i < cfg.Workers; i++ {
		w, err := newWorker(i, factory, cfg.WorkerMemory, reg)
		if err != nil {
			return nil, err
		}
		s.workers = append(s.workers, w)
	}
	for scene := range s.workers[0].models {
		s.scenes[scene] = true
	}
	s.scene = newSceneSeries(reg, s.scenes)
	for _, w := range s.workers {
		s.wg.Add(1)
		go w.run(s)
	}
	s.wg.Add(1)
	go s.schedule()
	return s, nil
}

// Submit queues one request and blocks until its verdict, an explicit
// rejection, or ctx ends. The deadline is ctx's when it has one, else
// Config.SLO; cancelling ctx while the request is queued returns
// ctx.Err() immediately and drops the request from its bucket before
// dispatch. Submission never blocks on admission: a full queue
// returns ErrQueueFull immediately — unless the request is Critical
// and a queued un-aged Routine request can be shed to make room.
func (s *Server) Submit(ctx context.Context, req Request) (Verdict, error) {
	if req.Clip == nil {
		return Verdict{}, fmt.Errorf("serve: nil clip")
	}
	if !s.scenes[req.Scene] {
		return Verdict{}, fmt.Errorf("serve: no model for scene %v", req.Scene)
	}
	// The request's trace rides the context when the caller started
	// one; otherwise the server's sampler (if any) starts it here and
	// owns its retirement.
	tr := telemetry.TraceFrom(ctx)
	owned := false
	if tr == nil && s.tracer != nil {
		tr = s.tracer.Start("serve/" + req.Scene.String())
		owned = true
	}
	if owned {
		defer tr.Finish()
	}
	if err := ctx.Err(); err != nil {
		// Admitted and cancelled at once, so the request still settles
		// in exactly one outcome counter and one trace terminal.
		s.metrics.submitted.Inc()
		s.scene[req.Scene].requests.Inc()
		s.metrics.cancelled.Inc()
		tr.Terminal("cancelled", time.Now())
		return Verdict{}, err
	}
	p := &pending{
		req:       req,
		prio:      req.Priority,
		deadline:  s.cfg.SLO,
		submitted: time.Now(),
		tr:        tr,
		done:      make(chan outcome, 1),
	}
	if dl, ok := ctx.Deadline(); ok {
		p.deadline = time.Until(dl)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		tr.Terminal("closed", time.Now())
		return Verdict{}, ErrClosed
	}
	var victim *pending
	if s.inflight >= s.cfg.QueueDepth {
		if req.Priority == Critical {
			victim = s.shedRoutineLocked()
		}
		if victim == nil {
			s.mu.Unlock()
			s.metrics.rejected.Inc()
			tr.Terminal("rejected", time.Now())
			return Verdict{}, ErrQueueFull
		}
		// The victim's slot transfers to p: inflight is unchanged.
		s.metrics.shed.Inc()
	} else {
		s.inflight++
	}
	s.metrics.submitted.Inc()
	s.scene[req.Scene].requests.Inc()
	s.intake = append(s.intake, p)
	if p.prio == Routine {
		s.routine[p] = struct{}{}
	}
	s.mu.Unlock()
	if victim != nil {
		victim.tr.Terminal("shed", time.Now())
		victim.done <- outcome{err: fmt.Errorf("%w (routine slot shed for critical admission)", ErrQueueFull)}
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return s.await(ctx, p)
}

// await blocks until the request's outcome or its context fires while
// it is still queued.
func (s *Server) await(ctx context.Context, p *pending) (Verdict, error) {
	select {
	case out := <-p.done:
		s.forget(p)
		return out.v, out.err
	case <-ctx.Done():
		if p.state.CompareAndSwap(statePending, stateCancelled) {
			s.mu.Lock()
			s.inflight--
			delete(s.routine, p)
			s.mu.Unlock()
			s.metrics.cancelled.Inc()
			p.tr.Terminal("cancelled", time.Now())
			return Verdict{}, ctx.Err()
		}
		// Lost the race: the request was claimed for dispatch (a
		// verdict or rejection is coming) or shed.
		out := <-p.done
		s.forget(p)
		return out.v, out.err
	}
}

// forget drops the request from the shed-candidate index after its
// outcome is settled.
func (s *Server) forget(p *pending) {
	if p.prio != Routine {
		return
	}
	s.mu.Lock()
	delete(s.routine, p)
	s.mu.Unlock()
}

// shedRoutineLocked claims one queued Routine request as the victim
// of a Critical admission. Requests that have aged past AgingBound
// are protected — shedding them would reintroduce the starvation the
// aging rule bounds. Callers hold s.mu.
func (s *Server) shedRoutineLocked() *pending {
	now := time.Now()
	for v := range s.routine {
		if now.Sub(v.submitted) >= s.cfg.AgingBound {
			continue
		}
		if v.state.CompareAndSwap(statePending, stateShed) {
			delete(s.routine, v)
			return v
		}
	}
	return nil
}

// release returns admission-queue slots once requests leave the
// scheduler's ownership (dispatched to a worker, or rejected before
// dispatch).
func (s *Server) release(n int) {
	s.mu.Lock()
	s.inflight -= n
	s.mu.Unlock()
}

// drainIntake takes the admission queue from Submit, leaving spare —
// the queue the scheduler took last time, emptied — in its place, so
// admission appends into a slice that has already grown.
func (s *Server) drainIntake(spare []*pending) []*pending {
	clear(spare)
	s.mu.Lock()
	taken := s.intake
	s.intake = spare[:0]
	s.mu.Unlock()
	return taken
}

// Close stops admission, fails all queued requests with ErrClosed,
// lets in-flight batches finish delivering, and waits for every
// goroutine to exit. Safe to call twice.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.stopped = true
	s.mu.Unlock()
	close(s.stopCh)
	s.wg.Wait()
	return nil
}

// Drain gracefully quiesces the serving plane: admission stops
// immediately (Submit returns ErrClosed), but everything already
// admitted keeps flowing — open buckets seal as workers free, in-flight
// batches compute, and every verdict is delivered —
// before the machinery shuts down. When ctx ends first, the remaining
// queued requests are failed with ErrClosed by the normal shutdown
// path and ctx.Err() is returned. This is the planned-handoff half of
// fleet failover: a draining node finishes the advisories it owes
// before its shards move.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	// Every submitted request settles into exactly one outcome
	// counter; drained means they have all done so.
	settled := func() bool {
		m := &s.metrics
		done := m.completed.Value() + m.cancelled.Value() + m.expired.Value() +
			m.failed.Value() + m.shed.Value()
		return done >= m.submitted.Value()
	}
	var err error
	for !settled() {
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-time.After(time.Millisecond):
			continue
		}
		break
	}
	if cerr := s.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// reject delivers an explicit rejection and counts it. Metrics and the
// trace terminal land before the outcome send, so a caller observing
// Submit return always sees its request settled in Stats.
func (s *Server) reject(p *pending, err error) {
	status := "failed"
	switch {
	case errors.Is(err, ErrDeadlineExceeded):
		s.metrics.expired.Inc()
		status = "expired"
	case errors.Is(err, ErrClosed):
		s.metrics.failed.Inc()
		status = "closed"
	default:
		s.metrics.failed.Inc()
	}
	p.tr.Terminal(status, time.Now())
	p.done <- outcome{err: err}
}

// bucketKey separates batching lanes: Critical clips never wait
// behind Routine batch formation for the same scene.
type bucketKey struct {
	scene    sim.Weather
	critical bool
}

// bucket accumulates same-scene, same-class requests until sealed
// into a batch. A bucket stays in the scheduler's map once made; it is
// open while it holds requests.
type bucket struct {
	reqs  []*pending
	first time.Time
}

// schedule is the single goroutine owning the batcher and routing
// state. All sends it performs are non-blocking by construction
// (worker channels are only written after an idle report; capacities
// cover the rest), so it can never deadlock against workers.
//
// Dispatch is work-conserving: while a worker is idle, every open
// bucket seals at once, so no clip waits for batch-mates a free worker
// could run without. Buckets grow only behind busy workers, sealing at
// MaxBatch or when their oldest member has waited BatchLatency.
func (s *Server) schedule() {
	defer s.wg.Done()

	buckets := make(map[bucketKey]*bucket)
	var ready []*batch
	idle := make([]idleNote, 0, len(s.workers))
	for i := range s.workers {
		idle = append(idle, idleNote{worker: i})
	}
	// free holds delivered batches for reuse, and intake the admission
	// queue taken last time: in steady state the scheduler allocates
	// nothing per batch.
	var free []*batch
	var intake []*pending

	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	timerSet := false

	// seal moves an open bucket's requests into a batch on the ready
	// queue. The batch takes the bucket's slice and hands the bucket
	// its own emptied one.
	seal := func(key bucketKey, bk *bucket) {
		var b *batch
		if n := len(free); n > 0 {
			b, free = free[n-1], free[:n-1]
		} else {
			b = new(batch)
		}
		spare := b.reqs[:0]
		*b = batch{scene: key.scene, critical: key.critical, reqs: bk.reqs}
		bk.reqs = spare
		ready = append(ready, b)
	}

	// recycle keeps a delivered batch for a later seal.
	recycle := func(b *batch) {
		if b != nil {
			b.reqs = b.reqs[:0]
			clear(b.reqs[:cap(b.reqs)])
			free = append(free, b)
		}
	}

	// sealIfIdle seals every open bucket while an idle worker waits.
	sealIfIdle := func() {
		if len(idle) == 0 {
			return
		}
		for key, bk := range buckets {
			if len(bk.reqs) > 0 {
				seal(key, bk)
			}
		}
	}

	// resetTimer re-arms the flush timer for the oldest open bucket.
	resetTimer := func() {
		if timerSet {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timerSet = false
		}
		var next time.Time
		for _, bk := range buckets {
			if len(bk.reqs) == 0 {
				continue
			}
			d := bk.first.Add(s.cfg.BatchLatency)
			if next.IsZero() || d.Before(next) {
				next = d
			}
		}
		if !next.IsZero() {
			timer.Reset(time.Until(next))
			timerSet = true
		}
	}

	// promote applies the aging rule to the ready queue: a Routine
	// batch whose oldest member has waited past AgingBound dispatches
	// in the Critical tier from now on.
	promote := func(now time.Time) {
		for _, b := range ready {
			if b.urgent() {
				continue
			}
			for _, p := range b.reqs {
				if now.Sub(p.submitted) >= s.cfg.AgingBound {
					b.promoted = true
					break
				}
			}
			if b.promoted {
				// Only the scheduler writes p.aged, and the worker reads
				// it after the dispatch channel send orders the write:
				// no lock needed.
				for _, p := range b.reqs {
					p.aged = true
					s.metrics.aged.Inc()
				}
			}
		}
	}

	// pick selects the next (batch, worker) pairing: Critical-tier
	// batches strictly before Routine ones; within a tier, a warm
	// pairing if any worker holds the batch's scene, else the oldest
	// batch onto the worker with the fewest resident models (keeps
	// warm workers warm and evicts least).
	pick := func() (bi, wi int) {
		for _, wantUrgent := range []bool{true, false} {
			first := -1
			for i, b := range ready {
				if b.urgent() != wantUrgent {
					continue
				}
				if first < 0 {
					first = i
				}
				for j, n := range idle {
					if n.resident.has(b.scene) {
						return i, j
					}
				}
			}
			if first >= 0 {
				coldest := 0
				for j, n := range idle {
					if bits.OnesCount64(uint64(n.resident)) < bits.OnesCount64(uint64(idle[coldest].resident)) {
						coldest = j
					}
				}
				return first, coldest
			}
		}
		return -1, -1
	}

	// dispatch pairs ready batches with idle workers, shedding
	// requests whose deadline lapsed and dropping requests that were
	// cancelled or shed while they waited.
	dispatch := func() {
		for len(ready) > 0 && len(idle) > 0 {
			now := time.Now()
			promote(now)
			bi, wi := pick()
			if bi < 0 {
				return
			}
			b := ready[bi]
			ready = append(ready[:bi], ready[bi+1:]...)
			note := idle[wi]
			idle = append(idle[:wi], idle[wi+1:]...)
			b.warm = note.resident.has(b.scene)

			kept := b.reqs[:0]
			for _, p := range b.reqs {
				if now.Sub(p.submitted) > p.deadline {
					if p.state.CompareAndSwap(statePending, stateClaimed) {
						s.release(1)
						s.reject(p, ErrDeadlineExceeded)
					}
					continue
				}
				if !p.state.CompareAndSwap(statePending, stateClaimed) {
					// Cancelled or shed while queued: the claimant
					// already settled the outcome and the slot.
					continue
				}
				p.dispatched = now
				kept = append(kept, p)
			}
			b.reqs = kept
			if len(b.reqs) == 0 {
				idle = append(idle, note)
				recycle(b)
				continue
			}
			s.release(len(b.reqs))
			s.workers[note.worker].ch <- b
		}
	}

	// takeIdle records a worker's idle report and keeps the batch it
	// returns.
	takeIdle := func(n idleNote) {
		recycle(n.spent)
		idle = append(idle, n)
	}

	// admit buckets freshly submitted requests, sealing a bucket at
	// MaxBatch always, and every open bucket while a worker is idle.
	admit := func() {
		// Routing sees every worker that has posted its idle note. A
		// worker posts it before delivering verdicts, so a caller that
		// resubmits at once finds its warm worker free. Only this
		// goroutine receives, so the receive cannot block.
		for len(s.idleCh) > 0 {
			takeIdle(<-s.idleCh)
		}
		now := time.Now()
		intake = s.drainIntake(intake)
		for _, p := range intake {
			if p.state.Load() != statePending {
				continue // cancelled or shed before bucketing
			}
			p.bucketed = now
			key := bucketKey{scene: p.req.Scene, critical: p.prio == Critical}
			bk := buckets[key]
			if bk == nil {
				bk = &bucket{}
				buckets[key] = bk
			}
			if len(bk.reqs) == 0 {
				bk.first = now
			}
			bk.reqs = append(bk.reqs, p)
			if len(bk.reqs) >= s.cfg.MaxBatch {
				seal(key, bk)
			}
		}
		sealIfIdle()
	}

	// fail claims and rejects a queued request at shutdown; requests
	// already cancelled or shed are dropped silently.
	fail := func(p *pending) {
		if p.state.CompareAndSwap(statePending, stateClaimed) {
			s.release(1)
			s.reject(p, ErrClosed)
		}
	}

	for {
		select {
		case <-s.wake:
			admit()
			dispatch()
			resetTimer()

		case <-timer.C:
			timerSet = false
			now := time.Now()
			for key, bk := range buckets {
				if len(bk.reqs) > 0 && !now.Before(bk.first.Add(s.cfg.BatchLatency)) {
					seal(key, bk)
				}
			}
			dispatch()
			resetTimer()

		case n := <-s.idleCh:
			takeIdle(n)
			// A worker just freed: take in everything submitted so far
			// and hand it whatever is queued, rather than stalling it
			// on the latency timer.
			admit()
			dispatch()
			resetTimer()

		case <-s.stopCh:
			// Fail everything not yet handed to a worker; in-flight
			// batches still deliver their verdicts.
			for _, p := range s.drainIntake(intake) {
				fail(p)
			}
			for _, b := range buckets {
				for _, p := range b.reqs {
					fail(p)
				}
			}
			for _, b := range ready {
				for _, p := range b.reqs {
					fail(p)
				}
			}
			for _, w := range s.workers {
				close(w.ch)
			}
			return
		}
	}
}
