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
	"safecross/internal/video"
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
	// counters as last exported to the registry, and reserved records
	// that a batched pass has sized it for MaxBatch clips.
	ws               *nn.Workspace
	wsGets, wsMisses int
	reserved         bool

	// streams holds the streaming-forward state of the clip buffers this
	// worker has classified with a SlowFast model. clips and labels are
	// the per-batch buffers, reused from batch to batch.
	streams streamTable
	clips   []*tensor.Tensor
	labels  []int

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
// batch and, after the worker's first batched pass of n clips, reserves
// the slab for a MaxBatch pass. Scratch is linear in the batch for every
// served stack, so no later batch size allocates; a stack that is not
// linear grows the slab once more and is still correct. Streamed
// batches (n = 0) run one clip per pass, so the slab already fits them.
func (w *worker) syncWorkspace(s *Server, n int) {
	if n > 0 && !w.reserved {
		w.reserved = true
		w.ws.Reserve((w.ws.Size() + n - 1) / n * s.cfg.MaxBatch)
	}
	s.metrics.wsHits.Add(int64((w.ws.Gets - w.wsGets) - (w.ws.Misses - w.wsMisses)))
	s.metrics.wsMisses.Add(int64(w.ws.Misses - w.wsMisses))
	w.wsGets, w.wsMisses = w.ws.Gets, w.ws.Misses
}

// classify labels the batch's clips in request order. A SlowFast model
// runs each clip through the stream the worker keeps for its buffer
// (video.Stream): the logits are == to the batched forward's, but the
// early convolutions reuse the frames earlier windows of that buffer
// computed. Any other model runs one batched forward.
func (w *worker) classify(s *Server, model infer.Model, b *batch) ([]int, error) {
	if sf, ok := model.(*video.SlowFast); ok {
		w.labels = w.labels[:0]
		defer w.syncWorkspace(s, 0)
		for _, p := range b.reqs {
			logits, err := sf.ForwardStream(w.streams.get(p.req.Clip), p.req.Clip, w.ws)
			if err != nil {
				w.ws.Reset()
				return nil, fmt.Errorf("infer: %s streamed forward: %w", sf.Name(), err)
			}
			w.labels = append(w.labels, nn.Predict(logits))
			w.ws.Reset()
		}
		return w.labels, nil
	}
	for _, p := range b.reqs {
		w.clips = append(w.clips, p.req.Clip)
	}
	labels, err := infer.PredictBatch(model, w.clips, w.ws)
	w.syncWorkspace(s, len(w.clips))
	clear(w.clips) // the buffers are the submitters' again
	w.clips = w.clips[:0]
	return labels, err
}

// serveBatch activates the batch's scene model (a PipeSwitch load —
// possibly evicting LRU residents — when the worker does not hold
// it), classifies the batch, and delivers a verdict to every request.
// Any failure is delivered as an explicit error — a taken batch never
// vanishes.
func (w *worker) serveBatch(s *Server, b *batch) {
	rep, err := w.mgr.Activate(b.scene.String())
	if err != nil {
		w.failBatch(s, b, fmt.Errorf("serve: switch to %v: %w", b.scene, err))
		return
	}
	switchEnd := time.Now()
	labels, err := w.classify(s, w.models[b.scene], b)
	computeWall := time.Since(switchEnd)
	if err != nil {
		w.failBatch(s, b, fmt.Errorf("serve: classify %v batch: %w", b.scene, err))
		return
	}

	// Charge the batch to the simulated GPU: FLOPs scale with the
	// batch, kernel launches are paid once (the batching win), on the
	// same timeline the switch just advanced. The charge is the full
	// forward's FLOPs even for streamed clips: the paper's GPU does not
	// stream.
	manifest, ok := w.mgr.ModelFor(b.scene.String())
	if !ok {
		w.failBatch(s, b, fmt.Errorf("serve: no manifest for scene %v", b.scene))
		return
	}
	dev := w.mgr.Device()
	start, done := dev.InferAt(dev.Now(), manifest.TotalFLOPs(), len(manifest.Layers), len(b.reqs))
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

// streamCap bounds the streams a worker keeps, one per clip buffer it
// has classified; the least recently used is handed to a new buffer.
// A stream holds ≈ 0.25 MiB for the default T = 32 SlowFast on the
// 10×16 grid.
const streamCap = 32

// streamTable maps clip buffers to their streams. It belongs to one
// worker, so it needs no lock.
type streamTable struct {
	entries []streamEntry
	clock   uint64
}

type streamEntry struct {
	clip *tensor.Tensor
	last uint64 // clock of the last get
	st   *video.Stream
}

// get returns clip's stream, taking over the least recently used one
// once the table is full. A stream that changes hands keeps its memory;
// its content check decides, as for any window, whether anything it
// holds is reused.
func (t *streamTable) get(clip *tensor.Tensor) *video.Stream {
	t.clock++
	lru := -1
	for i := range t.entries {
		e := &t.entries[i]
		if e.clip == clip {
			e.last = t.clock
			return e.st
		}
		if lru < 0 || e.last < t.entries[lru].last {
			lru = i
		}
	}
	if len(t.entries) < streamCap {
		t.entries = append(t.entries, streamEntry{clip: clip, last: t.clock, st: new(video.Stream)})
		return t.entries[len(t.entries)-1].st
	}
	e := &t.entries[lru]
	e.clip, e.last = clip, t.clock
	return e.st
}
