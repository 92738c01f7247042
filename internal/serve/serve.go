// Package serve is the multi-intersection inference-serving
// subsystem: it sits between feed sources (RSU camera loops,
// benchmarks, examples) and the per-scene video classifiers, turning
// the one-camera-one-GPU Framework deployment into a shared serving
// plane a city's worth of intersections can submit to.
//
// The pipeline is:
//
//	Submit(ctx) → bounded admission queue → per-scene, per-class
//	dynamic batcher → scheduler → worker pool over N simulated GPUs →
//	verdict
//
// Backpressure is explicit at every stage: a full admission queue
// rejects with ErrQueueFull rather than blocking (shedding a queued
// Routine request first when the newcomer is Critical), a request
// whose deadline lapses while queued is shed with ErrDeadlineExceeded
// before it wastes GPU time, and a request whose context is cancelled
// while queued returns ctx.Err() immediately and is dropped from its
// bucket before dispatch. Every accepted request therefore ends in
// exactly one of a verdict or an error — nothing is dropped silently.
//
// Requests carry a priority class. Critical requests (an intersection
// in a danger streak, where the fail-safe bias says the verdict is
// urgent) batch separately and dispatch ahead of Routine ones; an
// aging rule promotes any Routine batch that has waited past
// Config.AgingBound so saturation cannot starve it.
//
// Dynamic batching coalesces queued inputs for the same scene and
// class into one batch, flushing it when it reaches MaxBatch or when
// its oldest member has waited BatchLatency.
// Batch sizing is adaptive: the scheduler keeps a target in
// [1, MaxBatch] that tracks observed queue depth per worker — gated
// on the per-batch compute p50 being heavy enough to amortise batch
// formation — and seals a bucket early at the target whenever an idle
// worker is waiting, so a shallow queue dispatches immediately while
// a deep one forms full batches without the latency-timer stall. The
// scheduler routes a sealed batch to a worker where the scene's model
// is already resident when one is idle, and only triggers a
// PipeSwitch load when no warm worker exists.
//
// The plane is engine-keyed: workers dispatch through the inference
// engine (infer.Model / infer.PredictBatch), so any model implementing
// the contract serves from the same workers, one batched forward pass
// per batch. A SlowFast batch is the exception: the worker streams it
// (video.Stream), running each clip through the stream it keeps for
// that clip's buffer — the framework's persistent clip tensor, one per
// intersection — so the early convolutions compute only the frames
// the buffer's previous window could not. The stream checks every
// window's content and the model's weights before it reuses anything,
// so its verdicts are the full forward's; each worker keeps at most
// streamCap streams, evicting the least recently used. The simulated
// GPU is still charged the full forward.
//
// Each worker owns one nn.Workspace for its whole life: a single
// scratch slab, reserved for a MaxBatch pass after the worker's first
// batched pass, so no later forward pass allocates scratch. The
// workers' workspace hit/miss counters land in the telemetry registry.
//
// Each worker owns a private replica of every scene model (forward
// passes carry mutable state, so replicas are mandatory for
// parallelism) and its own simulated GPU with a finite memory budget
// (Config.WorkerMemory): models stay resident until memory pressure
// evicts the least recently used, and an evicted scene re-loads on
// demand through the PipeSwitch path. Switch and compute share one
// virtual timeline per worker, so Stats reports both wall-clock and
// deterministic virtual-time serving metrics, including evictions and
// reloads.
package serve

import (
	"errors"
	"fmt"
	"time"

	"safecross/internal/infer"
	"safecross/internal/sim"
	"safecross/internal/telemetry"
	"safecross/internal/tensor"
	"safecross/internal/video"
)

// Sentinel errors returned by Submit. All are explicit backpressure:
// the caller learns immediately that the request was not served.
var (
	// ErrQueueFull reports that the admission queue was full at
	// submission time, or — for an admitted Routine request — that its
	// slot was shed to admit a Critical request.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDeadlineExceeded reports that the request's deadline lapsed
	// while it was still queued, so it was shed before inference.
	// Requests whose deadline came from their context usually return
	// context.DeadlineExceeded from ctx instead.
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded before inference")
	// ErrClosed reports that the server was shut down before the
	// request could be served.
	ErrClosed = errors.New("serve: server closed")
)

// Priority is a request's admission class.
type Priority int

const (
	// Routine is the default class: normal advisory traffic.
	Routine Priority = iota
	// Critical marks safety-critical clips — e.g. an intersection
	// whose framework is in a danger streak. Critical batches flush
	// first, and under a full queue a Critical submission sheds a
	// queued Routine request rather than being rejected.
	Critical
)

// String names the class.
func (p Priority) String() string {
	if p == Critical {
		return "critical"
	}
	return "routine"
}

// Config sizes the serving plane.
type Config struct {
	// Workers is the number of simulated GPUs (default 2).
	Workers int
	// MaxBatch is the largest batch one forward pass may carry
	// (default 8; 1 disables batching). It is the upper bound of the
	// adaptive batch target the scheduler derives from queue depth.
	MaxBatch int
	// BatchLatency is the longest a queued clip may wait for
	// batch-mates before its batch is flushed anyway (default 2ms;
	// 0 flushes every batch immediately).
	BatchLatency time.Duration
	// QueueDepth bounds the admission queue (default 64).
	QueueDepth int
	// SLO is the default per-request deadline when the submission
	// context carries none (default 250ms). It is also the latency
	// bound SLO accounting is measured against.
	SLO time.Duration
	// WorkerMemory is each worker's simulated-GPU memory budget in
	// bytes; models beyond it are evicted least-recently-used and
	// re-loaded on demand. Zero keeps the device default (11 GiB,
	// which in practice means no eviction).
	WorkerMemory int64
	// AgingBound caps Routine starvation: a Routine batch that has
	// waited this long dispatches at Critical priority, and a Routine
	// request that has aged past it cannot be shed for a Critical
	// admission (default SLO/2).
	AgingBound time.Duration
	// Metrics is the telemetry registry all serving counters and
	// latency histograms land in. Nil gives the server a private
	// registry (Stats still works); pass a shared one to export the
	// series through a debug listener alongside pipeswitch and RSU
	// metrics.
	Metrics *telemetry.Registry
	// Tracer, when set, records per-request stage spans
	// (queue→batch-wait→switch→compute→deliver) for every submission
	// that does not already carry a trace on its context. Callers who
	// want to extend a trace past the verdict (e.g. through the RSU
	// broadcast) start their own with telemetry.WithTrace instead.
	Tracer *telemetry.Tracer
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.BatchLatency == 0 {
		c.BatchLatency = 2 * time.Millisecond
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.SLO == 0 {
		c.SLO = 250 * time.Millisecond
	}
	if c.AgingBound == 0 {
		c.AgingBound = c.SLO / 2
	}
	return c
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("serve: %d workers, need at least 1", c.Workers)
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("serve: max batch %d, need at least 1", c.MaxBatch)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("serve: queue depth %d, need at least 1", c.QueueDepth)
	}
	if c.BatchLatency < 0 || c.SLO < 0 || c.AgingBound < 0 {
		return fmt.Errorf("serve: negative latency bound")
	}
	if c.WorkerMemory < 0 {
		return fmt.Errorf("serve: negative worker memory %d", c.WorkerMemory)
	}
	return nil
}

// Request is one classification submission: a pre-processed clip, the
// scene whose model must judge it, and its admission class. Deadlines
// travel on the Submit context, not the request.
type Request struct {
	// Scene selects the per-scene model.
	Scene sim.Weather
	// Clip is the [1,T,H,W] occupancy-grid clip tensor.
	Clip *tensor.Tensor
	// Priority is the admission class (default Routine).
	Priority Priority
}

// Timing is the per-request SLO accounting: where the latency went.
type Timing struct {
	// Queue is the wait in the admission queue before the scheduler
	// placed the request into a scene bucket.
	Queue time.Duration
	// BatchWait is the wait inside the batch until a worker took it.
	BatchWait time.Duration
	// Compute is the wall-clock time of the batched forward pass the
	// request rode in.
	Compute time.Duration
	// Total is submission to verdict delivery.
	Total time.Duration
	// Switch is the virtual-time cost of the PipeSwitch model load
	// this batch triggered (zero when the model was resident).
	Switch time.Duration
	// VirtualCompute is the simulated-GPU duration of the batched
	// inference (kernel launches amortised over the batch).
	VirtualCompute time.Duration
	// Worker is the GPU worker that served the request.
	Worker int
	// Batch is the size of the batch the request was served in.
	Batch int
	// Evicted is how many resident models the worker evicted to load
	// this batch's model.
	Evicted int
	// SLOMet reports Total ≤ the request's deadline.
	SLOMet bool
}

// Verdict is the served classification result.
type Verdict struct {
	// Label is the predicted class (dataset.ClassDanger or
	// dataset.ClassSafe).
	Label int
	// Safe is the advisory reading of the label.
	Safe bool
	// Timing is the request's latency breakdown.
	Timing Timing
}

// ModelFactory builds one private replica of the per-scene engine
// models for a worker. It is called once per worker at server
// construction; replicas must not share mutable state. The serving
// plane is engine-keyed: any infer.Model (a video classifier behind
// video.Engine) serves from the same worker pool.
type ModelFactory func() (map[sim.Weather]infer.Model, error)

// Replicas returns a ModelFactory that clones trained per-scene video
// classifiers weight-for-weight through the builder that produced
// them (experiments.TrainedModels carries it) and lifts each clone to
// the engine contract.
func Replicas(builder video.Builder, trained map[sim.Weather]video.Classifier) ModelFactory {
	return func() (map[sim.Weather]infer.Model, error) {
		out := make(map[sim.Weather]infer.Model, len(trained))
		for scene, m := range trained {
			clone, err := video.CloneWeights(builder, m)
			if err != nil {
				return nil, fmt.Errorf("serve: replicate %v model: %w", scene, err)
			}
			out[scene] = clone
		}
		return out, nil
	}
}
