package serve

import (
	"time"

	"safecross/internal/pipeswitch"
)

// Stats is a point-in-time snapshot of serving activity. It is a
// façade over the server's telemetry registry: every counter below is
// read from a sharded atomic metric, and the percentiles come from
// the shared log-linear latency histograms (bucket resolution ≤25%,
// exact at the maximum), not a sorted sample ring.
type Stats struct {
	// Submitted counts requests accepted into the admission queue.
	Submitted int
	// Rejected counts submissions refused for a full queue
	// (ErrQueueFull backpressure).
	Rejected int
	// Shed counts admitted Routine requests pushed back out (with
	// ErrQueueFull) so a Critical request could take their slot.
	Shed int
	// Cancelled counts admitted requests whose context was cancelled
	// (or hit its deadline) while they were still queued; they were
	// dropped from their bucket before dispatch.
	Cancelled int
	// Expired counts queued requests shed because their deadline
	// lapsed before inference (ErrDeadlineExceeded).
	Expired int
	// Failed counts requests that ended in any other explicit error
	// (model failure, shutdown).
	Failed int
	// Completed counts requests that received a verdict.
	Completed int
	// SLOViolations counts completed requests whose total latency
	// exceeded their deadline.
	SLOViolations int
	// Aged counts Routine requests promoted to Critical dispatch by
	// the aging rule.
	Aged int

	// Batches is the number of batched forward passes; BatchedClips
	// the clips they carried; MaxBatch the largest batch observed.
	Batches, BatchedClips, MaxBatch int
	// BatchTargetMax always reads 1: dispatch is work-conserving, so a
	// bucket seals for an idle worker at one clip. It remains for
	// readers of the field from before the adaptive early-seal target
	// was removed.
	BatchTargetMax int
	// WorkspaceHits and WorkspaceMisses are the workers' workspace Get
	// counters: hits were carved from a worker's scratch slab, misses
	// outgrew it and allocated. Misses stop after each worker's first
	// batch, which reserves its slab for MaxBatch.
	WorkspaceHits, WorkspaceMisses int
	// WarmBatches counts batches routed to a worker already holding
	// the scene's model; Switches counts batches that triggered a
	// PipeSwitch model load.
	WarmBatches, Switches int
	// Evictions counts models evicted from worker memory under
	// pressure; Reloads counts loads that brought back a previously
	// evicted model.
	Evictions, Reloads int

	// QueueWait, BatchWait, and ComputeWall are cumulative wall-clock
	// components over completed requests.
	QueueWait, BatchWait, ComputeWall time.Duration
	// TotalLatency is the cumulative submit-to-verdict latency over
	// completed requests.
	TotalLatency time.Duration
	// P50 and P99 are total-latency percentiles over completed
	// requests (histogram-resolved: within one bucket of exact, and
	// exact at the observed maximum).
	P50, P99 time.Duration
	// CriticalQueueP95 and RoutineQueueP95 are submit-to-dispatch wait
	// percentiles over completed requests, split by effective class
	// (aged Routine requests count as Critical). They are the priority
	// plane's acceptance metric: under saturation, Critical must sit
	// below Routine.
	CriticalQueueP95, RoutineQueueP95 time.Duration
	// CriticalCompleted and RoutineCompleted split Completed by
	// effective class.
	CriticalCompleted, RoutineCompleted int

	// SwitchVirtual is the cumulative virtual-time cost of all model
	// loads performed by workers.
	SwitchVirtual time.Duration
	// VirtualBusy sums every worker's simulated-GPU timeline;
	// VirtualMakespan is the busiest worker's timeline — the
	// deterministic serving-completion time on the simulated
	// hardware, independent of the host machine.
	VirtualBusy, VirtualMakespan time.Duration
}

// MeanBatch returns the average clips per batched forward pass.
func (st Stats) MeanBatch() float64 {
	if st.Batches == 0 {
		return 0
	}
	return float64(st.BatchedClips) / float64(st.Batches)
}

// VirtualThroughput returns completed clips per second of virtual
// makespan — the host-independent throughput of the simulated GPU
// fleet.
func (st Stats) VirtualThroughput() float64 {
	if st.VirtualMakespan <= 0 {
		return 0
	}
	return float64(st.Completed) / st.VirtualMakespan.Seconds()
}

// recordBatch folds one served batch into the registry. The worker
// calls it BEFORE delivering any verdict, so a caller who observes
// Submit return is guaranteed to see its request in Stats — metric
// recording and outcome delivery are ordered, not racing.
func (s *Server) recordBatch(b *batch, rep pipeswitch.Report, computeWall time.Duration, now time.Time) {
	m := &s.metrics
	m.batches.Inc()
	m.batchedClips.Add(int64(len(b.reqs)))
	m.batchSize.Observe(int64(len(b.reqs)))
	m.maxBatch.SetMax(int64(len(b.reqs)))
	if b.warm {
		m.warmBatches.Inc()
	}
	switch rep.Method {
	case "", "noop", "resident":
		// The model was already on the device: no load happened.
	default:
		m.switches.Inc()
		m.switchCost.ObserveDuration(rep.Total)
	}
	m.evictions.Add(int64(rep.Evicted))
	if rep.Reload {
		m.reloads.Inc()
	}
	scene := s.scene[b.scene]
	for _, p := range b.reqs {
		total := now.Sub(p.submitted)
		m.completed.Inc()
		m.queueWait.ObserveDuration(p.bucketed.Sub(p.submitted))
		scene.queueWait.ObserveDuration(p.bucketed.Sub(p.submitted))
		m.batchWait.ObserveDuration(p.dispatched.Sub(p.bucketed))
		m.compute.ObserveDuration(computeWall)
		m.totalLatency.ObserveDuration(total)
		if total > p.deadline {
			m.sloViolations.Inc()
		}
		wait := p.dispatched.Sub(p.submitted)
		if p.critical() {
			m.critCompleted.Inc()
			m.critWait.ObserveDuration(wait)
		} else {
			m.routCompleted.Inc()
			m.routWait.ObserveDuration(wait)
		}
	}
}

// Stats returns a snapshot computed from the telemetry registry —
// one consistent telemetry.Snapshot read, addressed by series name —
// plus the per-worker virtual timelines, which live outside the
// registry.
func (s *Server) Stats() Stats {
	snap := s.registry.Snapshot()
	out := Stats{
		Submitted:     snap.Int("serve_submitted_total"),
		Rejected:      snap.Int("serve_rejected_total"),
		Shed:          snap.Int("serve_shed_total"),
		Cancelled:     snap.Int("serve_cancelled_total"),
		Expired:       snap.Int("serve_expired_total"),
		Failed:        snap.Int("serve_failed_total"),
		Completed:     snap.Int("serve_completed_total"),
		SLOViolations: snap.Int("serve_slo_violations_total"),
		Aged:          snap.Int("serve_aged_total"),

		Batches:        snap.Int("serve_batches_total"),
		BatchedClips:   snap.Int("serve_batched_clips_total"),
		MaxBatch:       snap.Int("serve_max_batch"),
		BatchTargetMax: 1,

		WorkspaceHits:   snap.Int("infer_workspace_hits_total"),
		WorkspaceMisses: snap.Int("infer_workspace_misses_total"),
		WarmBatches:     snap.Int("serve_warm_batches_total"),
		Switches:        snap.Int("serve_switches_total"),
		Evictions:       snap.Int("serve_evictions_total"),
		Reloads:         snap.Int("serve_reloads_total"),

		QueueWait:    snap.SumDuration("serve_queue_wait_seconds"),
		BatchWait:    snap.SumDuration("serve_batch_wait_seconds"),
		ComputeWall:  snap.SumDuration("serve_compute_seconds"),
		TotalLatency: snap.SumDuration("serve_total_latency_seconds"),

		P50:              snap.QuantileDuration("serve_total_latency_seconds", 0.50),
		P99:              snap.QuantileDuration("serve_total_latency_seconds", 0.99),
		CriticalQueueP95: snap.QuantileDuration(`serve_dispatch_wait_seconds{class="critical"}`, 0.95),
		RoutineQueueP95:  snap.QuantileDuration(`serve_dispatch_wait_seconds{class="routine"}`, 0.95),

		CriticalCompleted: snap.Int(`serve_completed_by_class_total{class="critical"}`),
		RoutineCompleted:  snap.Int(`serve_completed_by_class_total{class="routine"}`),

		SwitchVirtual: snap.SumDuration("serve_switch_cost_seconds"),
	}
	for _, w := range s.workers {
		v := time.Duration(w.virtualNow.Load())
		out.VirtualBusy += v
		if v > out.VirtualMakespan {
			out.VirtualMakespan = v
		}
	}
	return out
}
