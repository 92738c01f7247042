// Command safecross-rsu runs a SafeCross roadside unit over simulated
// camera feeds: it trains a quick daytime model, adapts the weather
// models, then serves left-turn advisories over TCP while one or more
// simulated intersections cycle through weather scenes. All
// classification flows through the internal/serve plane — a dynamic
// batcher over a pool of simulated GPUs with per-scene warm routing —
// so several intersections share the same models and hardware.
//
// Usage:
//
//	safecross-rsu -addr 127.0.0.1:7447 -frames 400 -intersections 4 -gpus 2 -demo
//
// With -demo a vehicle client connects in-process and prints the
// advisories it receives.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"safecross/internal/dataset"
	"safecross/internal/experiments"
	"safecross/internal/rsu"
	"safecross/internal/safecross"
	"safecross/internal/serve"
	"safecross/internal/sim"
	"safecross/internal/telemetry"
	"safecross/internal/tensor"
	"safecross/internal/weather"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "safecross-rsu:", err)
		os.Exit(1)
	}
}

// lockedWriter serializes output: with -demo the vehicle's receive
// goroutine prints advisories while the main goroutine prints the
// serving summary, and both land on the same stream.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func run(args []string, w io.Writer) error {
	w = &lockedWriter{w: w}
	fs := flag.NewFlagSet("safecross-rsu", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", "127.0.0.1:7447", "listen address")
		frames        = fs.Int("frames", 300, "camera frames to serve per intersection")
		perScene      = fs.Int("scene-frames", 120, "frames per weather scene in each feed")
		intersections = fs.Int("intersections", 1, "simulated intersections sharing this RSU")
		gpus          = fs.Int("gpus", 2, "simulated GPUs in the serving plane")
		maxBatch      = fs.Int("max-batch", 8, "dynamic batcher's maximum clips per forward pass")
		workerMem     = fs.Int("worker-mem", 0, "per-GPU memory budget in MiB (0 = device default; small budgets force LRU model eviction)")
		demo          = fs.Bool("demo", false, "attach an in-process vehicle client and print advisories")
		verbose       = fs.Bool("v", false, "log training progress and runtime events")
		debugAddr     = fs.String("debug-addr", "", "optional debug HTTP listener (Prometheus /metrics, /metrics.fed, /traces, expvar, pprof)")
		traceSample   = fs.Int("trace-sample", 8, "frame-trace sampling rate: one in N frames rides a full trace (queue → batch-wait → switch → compute → deliver → broadcast) into the /traces retention ring; the decision is derived from the minted trace id, so every process carrying the id agrees on it; 0 disables tracing")
		sloWindow     = fs.Duration("slo-window", 5*time.Minute, "SLO burn-rate short window (the long window is 12x); shrink it to make smoke runs exercise alerts")
		sloQueueObj   = fs.Duration("slo-queue-objective", 250*time.Millisecond, "serve queue-wait latency objective (p99 must stay under it)")
		sloVerdictObj = fs.Duration("slo-verdict-objective", time.Second, "end-to-end frame-to-verdict latency objective (p95 must stay under it)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *intersections < 1 {
		return fmt.Errorf("need at least one intersection")
	}
	if *traceSample < 0 {
		return fmt.Errorf("trace-sample must be ≥ 0, got %d", *traceSample)
	}

	// One registry and tracer for the whole process: the serving plane,
	// the per-intersection frameworks, and the RSU broadcast path all
	// record into them, and the debug listener exports them. The logger
	// is quiet by default; -v opens it up.
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.DefaultTraceRetention)
	logLevel := telemetry.LevelWarn
	if *verbose {
		logLevel = telemetry.LevelDebug
	}
	logger := telemetry.NewLogger(w, logLevel)
	if *debugAddr != "" {
		dbg, err := telemetry.ListenDebug(*debugAddr, reg, tracer)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(w, "debug endpoints on http://%s/metrics\n", dbg.Addr())
	}

	// The SLO engine turns the histograms above into burn-rate gauges:
	// one objective on the serving plane's queue wait, one on the
	// end-to-end frame→verdict path. Both evaluate from this process's
	// registry; the gauges land on the same /metrics export.
	slos := telemetry.NewSLOEngine(telemetry.SLOEngineConfig{
		ShortWindow: *sloWindow,
		Metrics:     reg,
		Logger:      logger,
	})
	if err := slos.Add(telemetry.SLO{
		Name: "serve-queue-wait", Series: "serve_queue_wait_seconds",
		Objective: *sloQueueObj, Target: 0.99,
	}, reg); err != nil {
		return err
	}
	if err := slos.Add(telemetry.SLO{
		Name: "frame-verdict", Series: "safecross_frame_verdict_seconds",
		Objective: *sloVerdictObj, Target: 0.95,
	}, reg); err != nil {
		return err
	}
	slos.Start()
	defer slos.Close()

	cfg := experiments.Quick()
	if *verbose {
		cfg.Log = w
	}
	fmt.Fprintln(w, "training scene models (quick profile)...")
	tm, err := experiments.TrainSceneModels(cfg)
	if err != nil {
		return err
	}
	det, err := weather.FitFromSim(20, 12345)
	if err != nil {
		return err
	}

	// One serving plane for every intersection: per-worker model
	// replicas cloned from the trained weights, dynamic batching, and
	// warm per-scene routing across the simulated GPUs.
	plane, err := serve.New(serve.Config{
		Workers:      *gpus,
		MaxBatch:     *maxBatch,
		WorkerMemory: int64(*workerMem) << 20,
		Metrics:      reg,
	}, serve.Replicas(tm.Builder, tm.Models))
	if err != nil {
		return err
	}
	defer plane.Close()

	// Backpressure is fail-safe: a clip the plane sheds (queue full,
	// deadline blown, or context expired) is reported as danger, never
	// as a silent pass. Danger-streak clips ride the Critical class, so
	// under pressure the plane sheds advisory traffic first.
	var sheds atomic.Int64
	classify := func(ctx context.Context, scene sim.Weather, clip *tensor.Tensor, critical bool) (int, error) {
		req := serve.Request{Scene: scene, Clip: clip}
		if critical {
			req.Priority = serve.Critical
		}
		v, err := plane.Submit(ctx, req)
		switch {
		case err == nil:
			return v.Label, nil
		case errors.Is(err, serve.ErrQueueFull),
			errors.Is(err, serve.ErrDeadlineExceeded),
			errors.Is(err, context.DeadlineExceeded):
			sheds.Add(1)
			return dataset.ClassDanger, nil
		default:
			return 0, err
		}
	}

	frameworks := make([]*safecross.Framework, *intersections)
	for i := range frameworks {
		if frameworks[i], err = safecross.NewServed(safecross.Config{ClipLen: cfg.ClipLen, Metrics: reg}, classify, det); err != nil {
			return err
		}
	}

	srv, err := rsu.Listen(*addr, rsu.WithMetrics(reg), rsu.WithLogger(logger), rsu.WithTracer(tracer))
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(w, "RSU listening on %s\n", srv.Addr())

	var wg sync.WaitGroup
	var demoCli *rsu.Client
	if *demo {
		// The demo vehicle shares the process tracer, so its side of
		// every sampled trace — the subscribe handshake and each
		// advisory it receives — lands in the same /traces ring as the
		// node's spans, under the same trace IDs.
		cli, err := rsu.DialRetry(rsu.RetryConfig{
			Seeds:       []string{srv.Addr()},
			Vehicle:     "demo-vehicle",
			Logger:      logger,
			Tracer:      tracer,
			TraceSample: 1,
		})
		if err != nil {
			return err
		}
		demoCli = cli
		defer cli.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for msg := range cli.Messages() {
				switch msg.Type {
				case rsu.TypeAdvisory:
					if msg.Ready {
						fmt.Fprintf(w, "vehicle: intersection %d frame %4d scene=%-5s safe=%v\n",
							msg.Intersection, msg.Frame, msg.Scene, msg.Safe)
					}
				case rsu.TypeStats:
					fmt.Fprintf(w, "vehicle: plane served=%d rejected=%d p99=%dµs\n",
						msg.Served, msg.Rejected, msg.P99Micros)
				}
			}
		}()
	}

	// Each intersection is an independent camera feed cycling through
	// the weather scenes at its own phase; all of them classify through
	// the shared serving plane concurrently.
	var (
		feeds    sync.WaitGroup
		served   atomic.Int64
		errOnce  sync.Once
		firstErr error
	)
	scenes := sim.AllWeathers()
	for idx, fw := range frameworks {
		feeds.Add(1)
		go func(idx int, fw *safecross.Framework) {
			defer feeds.Done()
			frame := 0
			for sceneIdx := idx; frame < *frames; sceneIdx++ {
				world := sim.NewWorld(sim.Config{
					Weather:       scenes[sceneIdx%len(scenes)],
					TruckPresent:  true,
					TurnerEnabled: true,
					TurnerRespawn: true,
					Seed:          int64(1000 + 100*idx + sceneIdx),
				})
				for i := 0; i < *perScene && frame < *frames; i++ {
					world.Step()
					frame++
					// Sampled frames carry a trace through the whole
					// pipeline: the serving plane records its stage spans
					// into it, this loop adds the broadcast span, and
					// Finish retires it into the dump ring. The sampling
					// decision is derived from the minted trace id — not a
					// frame counter — so a vehicle holding the id reaches
					// the same verdict and can join the trace.
					ctx := context.Background()
					var tr *telemetry.Trace
					if id := telemetry.NewTraceID(); id.Sampled(*traceSample) {
						tr = tracer.StartLinked(fmt.Sprintf("frame/intersection-%d/%d", idx, frame), id, "")
						ctx = telemetry.WithTrace(ctx, tr)
					}
					d, err := fw.ProcessFrameContext(ctx, world.Render())
					if err != nil {
						tr.Finish()
						errOnce.Do(func() { firstErr = fmt.Errorf("intersection %d: %w", idx, err) })
						return
					}
					served.Add(1)
					bStart := time.Now()
					// A traced frame's advisory carries the trace id on the
					// wire, hung under the broadcast span — subscribed
					// vehicles join the trace from it.
					srv.Broadcast(rsu.IntersectionAdvisory(idx, frame, d).
						WithTraceContext(tr.TraceID(), "broadcast"))
					tr.Span("broadcast", bStart, time.Now())
					tr.Finish()
					logger.Debugf("intersection %d frame %d scene=%v ready=%v safe=%v",
						idx, frame, d.Scene, d.Ready, d.Safe)
				}
			}
		}(idx, fw)
	}
	feeds.Wait()
	if firstErr != nil {
		return firstErr
	}
	srv.Broadcast(rsu.StatsMessage(plane.Stats()))

	st := plane.Stats()
	fmt.Fprintf(w, "served %d frames across %d intersections, %d fail-safe sheds\n",
		served.Load(), *intersections, sheds.Load())
	fmt.Fprintf(w, "serving plane: %d clips in %d batches (mean %.2f, warm %d, switches %d), p50 %v p99 %v\n",
		st.Completed, st.Batches, st.MeanBatch(), st.WarmBatches, st.Switches, st.P50, st.P99)
	fmt.Fprintf(w, "residency: %d evictions, %d reloads; admission: %d shed, %d cancelled, %d aged; queue p95 critical %v routine %v\n",
		st.Evictions, st.Reloads, st.Shed, st.Cancelled, st.Aged, st.CriticalQueueP95, st.RoutineQueueP95)

	if *demo {
		// Give the demo client a moment to drain, then shut down. The
		// retry client must be closed explicitly — its message channel
		// stays open across reconnect attempts otherwise.
		time.Sleep(100 * time.Millisecond)
		srv.Close()
		demoCli.Close()
		wg.Wait()
	}
	return nil
}
