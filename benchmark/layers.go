package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"safecross/internal/gpusim"
	"safecross/internal/infer"
	"safecross/internal/nn"
	"safecross/internal/pipeswitch"
	"safecross/internal/serve"
	"safecross/internal/sim"
	"safecross/internal/telemetry"
	"safecross/internal/tensor"
	"safecross/internal/video"
	"safecross/internal/vision"
	"safecross/internal/weather"
)

// layerMetrics fills the per-layer ledger of a traced pass: spans from
// the harness's own stamps, counts scraped from the program's
// registries and façades over the window, and (replayLayers) the inner
// layers timed through their public functions. baselineP50 is the
// untraced pass's frame_to_advisory_p50_ms on the same env.
func (l *ledger) layerMetrics(m map[string]float64, baselineP50 float64) {
	p := l.p
	lat := l.latency()
	p50, perSegment := l.segmented(lat, pickQ(0.5))
	m["frame.to_advisory_p90_ms"], _ = l.segmented(lat, pickQ(0.9))
	m["frame.to_advisory_p99_ms"] = l.tail(lat)
	m["frame.p99_samples_per_segment"] = float64(perSegment)
	m["loadgen.late_p99_ms"] = l.tail(l.lateness())

	var process, self, submit, queue, batchWait, compute, bcast, wire series
	var scoredN, missed, notReady, turns, unsafeTurns, received, shed, sceneChanges int
	var processTotal int64
	last := make([]sim.Weather, len(l.recs))
	l.scored(func(fi, _ int, r *frameRec) {
		scoredN++
		if !r.received || r.recv-r.due > int64(framePeriod) {
			missed++
		}
		if r.shed {
			shed++
		}
		process.add(r.due, float64(r.procEnd-r.call)*msPerNs)
		processTotal += r.procEnd - r.call
		inSubmit := r.submitEnd - r.submitStart
		self.add(r.due, float64(r.procEnd-r.call-inSubmit)*msPerNs)
		if r.submitStart > 0 {
			submit.add(r.due, float64(inSubmit)*msPerNs)
			if !r.shed {
				queue.add(r.due, float64(r.queue)/1e3)
				batchWait.add(r.due, float64(r.batchWait)/1e3)
				compute.add(r.due, float64(r.compute)/1e3)
			}
		}
		if !r.received {
			return
		}
		received++
		bcastEnd := r.broadcastEnd()
		bcast.add(r.due, float64(bcastEnd-r.procEnd)/1e3)
		wire.add(r.due, float64(r.recv-bcastEnd)/1e3)
		if !r.ready {
			notReady++
		}
		if r.ready && r.safe {
			turns++
			if r.risk {
				unsafeTurns++
			}
		}
		if last[fi] != 0 && r.scene != last[fi] {
			sceneChanges++
		}
		last[fi] = r.scene
	})
	m["loadgen.deadline_miss_ratio"] = ratio(missed, scoredN)
	m["safecross.process_frame_p50_ms"], _ = l.segmented(&process, pickQ(0.5))
	m["safecross.self_p50_ms"], _ = l.segmented(&self, pickQ(0.5))
	m["safecross.not_ready_ratio"] = ratio(notReady, received)
	m["safecross.unsafe_turn_ratio"] = ratio(unsafeTurns, turns)
	m["weather.scene_changes"] = float64(sceneChanges)
	m["serve.submit_p50_ms"], _ = l.segmented(&submit, pickQ(0.5))
	m["serve.submit_p99_ms"] = l.tail(&submit)
	m["serve.queue_wait_p99_us"] = l.tail(&queue)
	m["serve.batch_wait_p99_us"] = l.tail(&batchWait)
	m["serve.compute_p50_us"], _ = l.segmented(&compute, pickQ(0.5))
	m["serve.shed"] = float64(shed)
	m["rsu.broadcast_call_p50_us"], _ = l.segmented(&bcast, pickQ(0.5))
	m["rsu.wire_p50_us"], _ = l.segmented(&wire, pickQ(0.5))
	m["rsu.wire_p99_us"] = l.tail(&wire)
	m["rsu.bytes_per_advisory"] = l.advisoryBytes()

	// The program's own stage histograms over the window (exact sums
	// and counts; their quantiles are bucketed, so none are used here).
	stage := func(name string) (sum, count int64) {
		return p.w1.snaps.sum(name) - p.w0.snaps.sum(name), p.w1.snaps.count(name) - p.w0.snaps.count(name)
	}
	var stageTotal int64
	for key, name := range map[string]string{
		"safecross.scene_detect_mean_us": "safecross_scene_detect_seconds",
		"safecross.vp_mean_us":           "safecross_vp_seconds",
		"safecross.classify_mean_us":     "safecross_classify_seconds",
	} {
		sum, count := stage(name)
		stageTotal += sum
		m[key] = ratio64(sum, count) / 1e3
	}
	m["safecross.stage_coverage_ratio"] = ratio64(stageTotal, processTotal)

	hits := p.final.value("infer_workspace_hits_total")
	m["infer.workspace_hit_ratio"] = ratio64(hits, hits+p.final.value("infer_workspace_misses_total"))

	// serve/pipeswitch/gpusim: façade deltas over the window, both planes.
	var d serveDelta
	for i := range p.w0.planes {
		d.add(p.w0.planes[i], p.w1.planes[i])
	}
	m["serve.mean_batch"] = ratio(d.clips, d.batches)
	m["serve.batch_target_max"] = float64(d.targetMax)
	m["serve.warm_batch_ratio"] = ratio(d.warm, d.batches)
	m["serve.switches_per_kframe"] = ratio(d.switches*1000, d.completed)
	m["pipeswitch.evictions"] = float64(d.evictions)
	m["pipeswitch.reloads"] = float64(d.reloads)
	wall := time.Duration(l.w1 - l.w0)
	m["gpusim.virt_busy_ratio"] = d.virtBusy.Seconds() / wall.Seconds()
	m["gpusim.virt_clips_per_s"] = 0
	if d.virtBusy > 0 {
		m["gpusim.virt_clips_per_s"] = float64(d.completed) / d.virtBusy.Seconds()
	}

	m["rsu.evictions"] = float64(p.final.value("rsu_slow_subscriber_evictions_total"))

	// fleet: the epilogue seen from outside, plus the control plane's
	// own series (one failover, so the histogram mean is the sample).
	var detect, refill []float64
	for _, k := range p.moved {
		f := p.feeds[k-1]
		attach, ready := f.attach[p.survivor()], f.firstReady[p.survivor()]
		if attach > p.crashAt {
			detect = append(detect, float64(attach-p.crashAt)*msPerNs)
			if ready > attach {
				refill = append(refill, float64(ready-attach)*msPerNs)
			}
		}
	}
	m["fleet.detect_reassign_ms"] = median(detect)
	m["safecross.ring_refill_ms"] = median(refill)
	m["fleet.reassign_p50_ms"] = ratio64(p.final.sum("fleet_reassign_seconds"), p.final.count("fleet_reassign_seconds")) * msPerNs
	var rtt int64
	for _, snap := range p.final {
		for _, name := range snap.Names("fleet_heartbeat_rtt_seconds") {
			if q := snap.Quantile(name, 0.99); q > rtt {
				rtt = q
			}
		}
	}
	m["fleet.heartbeat_rtt_p99_us"] = float64(rtt) / 1e3
	m["fleet.wal_appends"] = float64(p.final.value("fleet_wal_appends_total"))
	m["fleet.wal_replay_ms"] = float64(p.walReplay) * msPerNs
	perNode := map[string]int{}
	for _, owner := range p.owners {
		perNode[owner]++
	}
	most := 0
	for _, n := range perNode {
		if n > most {
			most = n
		}
	}
	m["fleet.assign_spread"] = ratio(most*nodeCount, len(p.owners)) // largest share over the fair share

	m["telemetry.overhead_p50_pct"] = 0
	if baselineP50 > 0 {
		m["telemetry.overhead_p50_pct"] = (p50/baselineP50 - 1) * 100
	}

	m["process.cpu_ms_per_frame"] = ratio64(int64(p.w1.cpu-p.w0.cpu), int64(received)) * msPerNs
	m["process.live_heap_mb"] = float64(p.liveHeap) / (1 << 20)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["process.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	m["process.gc_cycles"] = float64(p.w1.mem.NumGC - p.w0.mem.NumGC)
	m["process.gc_pause_p99_us"] = gcPauseP99(&p.w0.mem, &p.w1.mem) / 1e3
}

func ratio(a, b int) float64 { return ratio64(int64(a), int64(b)) }

func ratio64(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serveDelta sums serve.Stats movement over the window across planes.
type serveDelta struct {
	batches, clips, warm, switches, completed, evictions, reloads, targetMax int
	virtBusy                                                                 time.Duration
}

func (d *serveDelta) add(a, b serve.Stats) {
	d.batches += b.Batches - a.Batches
	d.clips += b.BatchedClips - a.BatchedClips
	d.warm += b.WarmBatches - a.WarmBatches
	d.switches += b.Switches - a.Switches
	d.completed += b.Completed - a.Completed
	d.evictions += b.Evictions - a.Evictions
	d.reloads += b.Reloads - a.Reloads
	d.virtBusy += b.VirtualBusy - a.VirtualBusy
	if b.BatchTargetMax > d.targetMax {
		d.targetMax = b.BatchTargetMax
	}
}

// gcPauseP99 reads the stop-the-world pauses of the cycles between two
// MemStats off the runtime's 256-entry ring.
func gcPauseP99(from, to *runtime.MemStats) float64 {
	cycles := to.NumGC - from.NumGC
	if cycles > uint32(len(to.PauseNs)) {
		cycles = uint32(len(to.PauseNs))
	}
	pauses := make([]float64, 0, cycles)
	for i := uint32(0); i < cycles; i++ {
		pauses = append(pauses, float64(to.PauseNs[(to.NumGC-1-i)%uint32(len(to.PauseNs))]))
	}
	sort.Float64s(pauses)
	return quantile(pauses, 0.99)
}

// medianNs times fn iters times (after one untimed call) and returns
// the median duration in ns.
func medianNs(iters int, fn func()) float64 {
	fn()
	times := make([]float64, iters)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = float64(time.Since(start))
	}
	return median(times)
}

// meanNs times n back-to-back calls of a sub-microsecond fn.
func meanNs(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(n)
}

// conv is one SlowFast convolution's geometry. The network keeps its
// layers private, so the replay rebuilds them from internal/video's
// NewSlowFast; a change to that file's geometry must be mirrored here.
type conv struct {
	name          string
	cfg           nn.Conv3DConfig
	inT, inH, inW int
}

func slowFastConvs(t, h, w int) []conv {
	h2, w2 := tensor.ConvOutSize(h, 3, 2, 1), tensor.ConvOutSize(w, 3, 2, 1)
	return []conv{
		{"fast.conv1", nn.Conv3DConfig{InC: 1, OutC: 3, KT: 3, KH: 3, KW: 3, ST: 1, SH: 2, SW: 2, PT: 1, PH: 1, PW: 1}, t, h, w},
		{"fast.conv2", nn.Conv3DConfig{InC: 3, OutC: 6, KT: 3, KH: 3, KW: 3, ST: 2, SH: 1, SW: 1, PT: 1, PH: 1, PW: 1}, t, h2, w2},
		{"slow.conv1", nn.Conv3DConfig{InC: 1, OutC: 10, KT: 1, KH: 3, KW: 3, ST: 1, SH: 2, SW: 2, PT: 0, PH: 1, PW: 1}, t / 8, h, w},
		{"lateral.conv", nn.Conv3DConfig{InC: 6, OutC: 6, KT: 3, KH: 1, KW: 1, ST: 4, SH: 1, SW: 1, PT: 1, PH: 0, PW: 0}, t / 2, h2, w2},
		{"fuse.conv1", nn.Conv3DConfig{InC: 16, OutC: 16, KT: 3, KH: 3, KW: 3, ST: 1, SH: 2, SW: 2, PT: 1, PH: 1, PW: 1}, t / 8, h2, w2},
	}
}

// dims returns the im2col matrix shape [k, n] of the layer for one clip.
func (c conv) dims() (k, n int) {
	ot := tensor.ConvOutSize(c.inT, c.cfg.KT, c.cfg.ST, c.cfg.PT)
	oh := tensor.ConvOutSize(c.inH, c.cfg.KH, c.cfg.SH, c.cfg.PH)
	ow := tensor.ConvOutSize(c.inW, c.cfg.KW, c.cfg.SW, c.cfg.PW)
	return c.cfg.InC * c.cfg.KT * c.cfg.KH * c.cfg.KW, ot * oh * ow
}

// replayLayers times the inner layers through their public functions on
// inputs captured from the run's own pool: intersection 1's first
// poolFrames frames, the grids VP makes of them, and the clips those
// grids stack into.
func replayLayers(e *env, wl workload, m map[string]float64) error {
	src := newSource(e.pool, wl, 0)
	frames := make([]*vision.Image, poolFrames)
	for i := range frames {
		frames[i], _ = src.at(i + 1)
	}

	monitor := weather.NewMonitor(e.det, sim.Day, 0)
	i := 0
	m["weather.observe_us"] = medianNs(len(frames)-1, func() { monitor.Observe(frames[i%len(frames)]); i++ }) / 1e3

	vp := vision.NewPreprocessor(vision.DefaultVPConfig())
	grids := make([]*vision.Image, 0, len(frames))
	var vpErr error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	times := make([]float64, 0, len(frames))
	for _, f := range frames {
		start := time.Now()
		g, err := vp.Process(f)
		times = append(times, float64(time.Since(start)))
		if err != nil {
			vpErr = err
			break
		}
		grids = append(grids, g)
	}
	runtime.ReadMemStats(&after)
	if vpErr != nil {
		return fmt.Errorf("vp replay: %w", vpErr)
	}
	m["vision.vp_process_us"] = median(times) / 1e3
	m["vision.vp_alloc_kb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(frames))

	var clips []*tensor.Tensor
	var clipErr error
	i = 0
	m["vision.clip_tensor_us"] = medianNs(len(grids)-e.clipLen, func() {
		clip, err := vision.ClipTensor(grids[i : i+e.clipLen])
		if err != nil {
			clipErr = err
		}
		if i%8 == 0 && len(clips) < 8 {
			clips = append(clips, clip)
		}
		i++
	}) / 1e3
	if clipErr != nil {
		return fmt.Errorf("clip replay: %w", clipErr)
	}
	if len(clips) < 8 {
		return fmt.Errorf("clip replay captured %d clips, need 8", len(clips))
	}

	clone, err := video.CloneWeights(e.tm.Builder, e.tm.Models[sim.Day])
	if err != nil {
		return err
	}
	model := video.Engine(clone)
	ws := nn.NewWorkspace()
	var predictErr error
	predict := func(batch []*tensor.Tensor) func() {
		return func() {
			if _, err := infer.PredictBatch(model, batch, ws); err != nil {
				predictErr = err
			}
		}
	}
	b1 := medianNs(100, predict(clips[:1]))
	b8 := medianNs(25, predict(clips)) / 8
	if predictErr != nil {
		return fmt.Errorf("predict replay: %w", predictErr)
	}
	m["video.predict_b1_us"] = b1 / 1e3
	m["video.predict_b8_us_per_clip"] = b8 / 1e3
	m["video.batch_speedup"] = b1 / b8
	m["nn.workspace_miss_ratio"] = ratio(ws.Misses, ws.Gets)

	// The heaviest convolution by multiply-adds, and its two kernels at
	// that shape.
	vpCfg := vision.DefaultVPConfig()
	convs := slowFastConvs(e.clipLen, vpCfg.GridH, vpCfg.GridW)
	var big conv
	bigMACs, bytesMoved := 0, 0
	for _, c := range convs {
		k, n := c.dims()
		if macs := c.cfg.OutC * k * n; macs > bigMACs {
			big, bigMACs = c, macs
		}
		// im2col reads the input and writes [k,n]; matmul reads the
		// weights and [k,n] and writes [outC,n]; float64 throughout.
		in := c.cfg.InC * c.inT * c.inH * c.inW
		bytesMoved += 8 * (in + k*n + c.cfg.OutC*k + k*n + c.cfg.OutC*n)
	}
	m["tensor.bytes_moved_per_clip"] = float64(bytesMoved) // computed from shapes, not measured
	rng := rand.New(rand.NewSource(e.seed))
	layer := nn.NewConv3D("replay."+big.name, big.cfg, rng)
	layer.SetTrain(false)
	x := tensor.RandnTensor(rng, 1, big.cfg.InC, big.inT, big.inH, big.inW)
	lws := nn.NewWorkspace()
	var convErr error
	m["nn.conv3d_forward_us"] = medianNs(200, func() {
		if _, err := layer.ForwardWS(x, lws); err != nil {
			convErr = err
		}
		lws.Reset()
	}) / 1e3
	k, n := big.dims()
	cols := tensor.New(k, n)
	m["tensor.im2col3d_us"] = medianNs(200, func() {
		if err := tensor.Im2Col3DBatchInto(cols, x, 1, big.cfg.KT, big.cfg.KH, big.cfg.KW,
			big.cfg.ST, big.cfg.SH, big.cfg.SW, big.cfg.PT, big.cfg.PH, big.cfg.PW); err != nil {
			convErr = err
		}
	}) / 1e3
	out := tensor.New(big.cfg.OutC, n)
	matmulNs := medianNs(200, func() {
		if err := tensor.MatMulInto(out, layer.W.Value, cols); err != nil {
			convErr = err
		}
	})
	if convErr != nil {
		return fmt.Errorf("conv replay: %w", convErr)
	}
	m["tensor.matmul_us"] = matmulNs / 1e3
	m["tensor.matmul_gflops"] = float64(2*bigMACs) / matmulNs

	// PipeSwitch on a one-model device: every activation of the other
	// scene evicts and loads.
	devCfg := gpusim.DefaultConfig()
	devCfg.MemoryBytes = 76 << 20
	dev, err := gpusim.NewDevice(devCfg)
	if err != nil {
		return err
	}
	mgr := pipeswitch.NewManager(dev)
	for _, scene := range allScenes {
		manifest := pipeswitch.SafeCrossSlowFast()
		manifest.Name += "-" + scene.String()
		if err := mgr.Register(scene.String(), manifest); err != nil {
			return err
		}
	}
	var virt []float64
	var swErr error
	i = 0
	m["pipeswitch.activate_wall_us"] = medianNs(300, func() {
		rep, err := mgr.Activate(allScenes[i%len(allScenes)].String())
		if err != nil {
			swErr = err
		}
		virt = append(virt, float64(rep.Total)/float64(switchBudget))
		i++
	}) / 1e3
	if swErr != nil {
		return fmt.Errorf("pipeswitch replay: %w", swErr)
	}
	m["pipeswitch.switch_budget_p50_ratio"] = median(virt)

	reg := telemetry.NewRegistry()
	counter := reg.Counter("replay_total", "")
	m["telemetry.counter_inc_ns"] = meanNs(1_000_000, counter.Inc)
	hist := reg.Histogram("replay_seconds", "", telemetry.UnitSeconds)
	v := int64(0)
	m["telemetry.histogram_observe_ns"] = meanNs(1_000_000, func() { v += 997; hist.Observe(v) })
	tracer := telemetry.NewTracer(0)
	m["telemetry.trace_span_ns"] = meanNs(100_000, func() {
		tr := tracer.Start("replay")
		now := time.Now()
		tr.Span("stage", now, now)
		tr.Finish()
	})
	return nil
}
