package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"safecross/internal/dataset"
	"safecross/internal/gpusim"
	"safecross/internal/infer"
	"safecross/internal/nn"
	"safecross/internal/pipeswitch"
	"safecross/internal/sim"
	"safecross/internal/telemetry"
	"safecross/internal/tensor"
)

// worker is one GPU-attached serving process: a private replica of
// every scene engine model, a simulated device with a finite memory
// budget, and a PipeSwitch manager that owns model residency — loads,
// LRU evictions, and reloads all land on the worker's virtual
// timeline. Forward-pass scratch comes from the worker's own
// workspace, one slab for its whole life: after the first batch it is
// reserved for a MaxBatch pass, so no later batch of any size
// allocates scratch and the heap stays inside the WorkerMemory budget
// however long the server runs.
type worker struct {
	id     int
	ch     chan *batch
	mgr    *pipeswitch.Manager
	models map[sim.Weather]infer.Model

	// ws is the worker's scratch slab; wsGets and wsMisses are its
	// counters as last exported to the registry.
	ws               *nn.Workspace
	wsGets, wsMisses int

	// virtualNow mirrors the device clock (nanoseconds) after each
	// batch so Stats can read it without racing the worker.
	virtualNow atomic.Int64
}

// newWorker builds a worker: model replicas from the factory, a fresh
// simulated GPU whose memory budget is capped at memoryBytes (zero
// keeps the device default), and the per-scene switch manifests
// registered under sim.Weather.String() keys (mirroring
// safecross.NewDefault). Registration is metadata only — nothing is
// loaded until the first batch for a scene arrives.
func newWorker(id int, factory ModelFactory, memoryBytes int64, reg *telemetry.Registry) (*worker, error) {
	models, err := factory()
	if err != nil {
		return nil, fmt.Errorf("serve: worker %d models: %w", id, err)
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("serve: worker %d has no models", id)
	}
	devCfg := gpusim.DefaultConfig()
	if memoryBytes > 0 {
		devCfg.MemoryBytes = memoryBytes
	}
	dev, err := gpusim.NewDevice(devCfg)
	if err != nil {
		return nil, fmt.Errorf("serve: worker %d: %w", id, err)
	}
	// All workers share the server's registry, so their per-method load
	// histograms and residency-churn counters aggregate into one series
	// set (pipeswitch_load_seconds{method="…"} etc.).
	mgr := pipeswitch.NewManager(dev, pipeswitch.WithMetrics(reg))
	for scene := range models {
		m := pipeswitch.SafeCrossSlowFast()
		m.Name = m.Name + "-" + scene.String()
		if err := mgr.Register(scene.String(), m); err != nil {
			return nil, fmt.Errorf("serve: worker %d: %w", id, err)
		}
	}
	return &worker{
		id:     id,
		ch:     make(chan *batch, 1),
		mgr:    mgr,
		models: models,
		ws:     nn.NewWorkspace(),
	}, nil
}

// residentScenes lists the scenes whose models currently sit in this
// worker's device memory, for the scheduler's warm-routing mirror.
func (w *worker) residentScenes() []sim.Weather {
	out := make([]sim.Weather, 0, len(w.models))
	for scene := range w.models {
		if w.mgr.Resident(scene.String()) {
			out = append(out, scene)
		}
	}
	return out
}

// run serves batches until the scheduler closes the channel.
func (w *worker) run(s *Server) {
	defer s.wg.Done()
	for b := range w.ch {
		w.serveBatch(s, b)
	}
}

// reportIdle tells the scheduler the worker is free. serveBatch calls
// it once per batch, before delivering any outcome, so a caller that
// resubmits as soon as its verdict arrives finds this worker — and the
// model it holds — already free.
func (w *worker) reportIdle(s *Server) {
	s.idleCh <- idleNote{worker: w.id, resident: w.residentScenes()}
}

// syncWorkspace exports the workspace counters' growth since the last
// batch and, after the worker's first batch of n clips, reserves the
// slab for a MaxBatch pass. Scratch is linear in the batch for every
// served stack, so no later batch size allocates; a stack that is not
// linear grows the slab once more and is still correct.
func (w *worker) syncWorkspace(s *Server, n int) {
	if w.wsGets == 0 {
		w.ws.Reserve((w.ws.Size() + n - 1) / n * s.cfg.MaxBatch)
	}
	s.metrics.wsHits.Add(int64((w.ws.Gets - w.wsGets) - (w.ws.Misses - w.wsMisses)))
	s.metrics.wsMisses.Add(int64(w.ws.Misses - w.wsMisses))
	w.wsGets, w.wsMisses = w.ws.Gets, w.ws.Misses
}

// serveBatch activates the batch's scene model (a PipeSwitch load —
// possibly evicting LRU residents — when the worker does not hold
// it), runs one batched forward pass, and delivers a verdict to every
// request. Any failure is delivered as an explicit error — a taken
// batch never vanishes.
func (w *worker) serveBatch(s *Server, b *batch) {
	rep, err := w.mgr.Activate(b.scene.String())
	if err != nil {
		w.failBatch(s, b, fmt.Errorf("serve: switch to %v: %w", b.scene, err))
		return
	}
	switchEnd := time.Now()
	clips := make([]*tensor.Tensor, len(b.reqs))
	for i, p := range b.reqs {
		clips[i] = p.req.Clip
	}
	labels, err := infer.PredictBatch(w.models[b.scene], clips, w.ws)
	computeWall := time.Since(switchEnd)
	w.syncWorkspace(s, len(clips))
	if err != nil {
		w.failBatch(s, b, fmt.Errorf("serve: classify %v batch: %w", b.scene, err))
		return
	}

	// Charge the batch to the simulated GPU: FLOPs scale with the
	// batch, kernel launches are paid once (the batching win), on the
	// same timeline the switch just advanced.
	manifest, ok := w.mgr.ModelFor(b.scene.String())
	if !ok {
		w.failBatch(s, b, fmt.Errorf("serve: no manifest for scene %v", b.scene))
		return
	}
	dev := w.mgr.Device()
	start, done := dev.InferAt(dev.Now(), manifest.TotalFLOPs(), len(manifest.Layers), len(clips))
	virtCompute := done - start
	w.virtualNow.Store(int64(dev.Now()))
	computeEnd := time.Now()

	// Record metrics BEFORE delivering any verdict: a caller observing
	// Submit return is then guaranteed to see its request in Stats.
	now := time.Now()
	s.recordBatch(b, rep, computeWall, now)
	w.reportIdle(s)
	for i, p := range b.reqs {
		t := Timing{
			Queue:          p.bucketed.Sub(p.submitted),
			BatchWait:      p.dispatched.Sub(p.bucketed),
			Compute:        computeWall,
			Total:          now.Sub(p.submitted),
			Switch:         rep.Total,
			VirtualCompute: virtCompute,
			Worker:         w.id,
			Batch:          len(b.reqs),
			Evicted:        rep.Evicted,
		}
		t.SLOMet = t.Total <= p.deadline
		// Stage spans tile the request's full wall-clock life,
		// submit→verdict, on shared boundary instants: each span starts
		// where the previous one ends, so a dumped trace accounts for
		// every nanosecond exactly once.
		if p.tr != nil {
			p.tr.Span("queue", p.submitted, p.bucketed)
			p.tr.Span("batch-wait", p.bucketed, p.dispatched)
			p.tr.Span("switch", p.dispatched, switchEnd)
			p.tr.Span("compute", switchEnd, computeEnd)
			p.tr.Span("deliver", computeEnd, now)
			p.tr.Terminal("completed", now)
		}
		label := labels[i]
		p.done <- outcome{v: Verdict{
			Label:  label,
			Safe:   label == dataset.ClassSafe,
			Timing: t,
		}}
	}
}

// failBatch reports the worker idle and rejects every request in the
// batch with the same error.
func (w *worker) failBatch(s *Server, b *batch, err error) {
	w.reportIdle(s)
	for _, p := range b.reqs {
		s.reject(p, err)
	}
}
