// Command benchmark is the repository's frame-to-advisory benchmark: it
// drives the whole production topology — one fleet coordinator with a
// write-ahead log, two RSU nodes (serving plane + listener + agent
// each) and two vehicle connections — in one process, from generated
// camera frames to advisories read off the vehicles' connections, and
// times every layer from outside through its public functions.
//
// One invocation runs one workload from one seed:
//
//	go run ./benchmark -workload steady-day -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// runs the same workload with spans and the program's registries on,
// prints the per-layer ledger and writes one span tree per frame to
// benchmark/out/trace-<workload>.json. The last line of standard output
// is the result as one JSON object; the exit code is non-zero when the
// correctness gate fails. README.md in this directory has the run
// shape, the noise rules and how to read the numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	runtime.GOMAXPROCS(procs)
	var (
		o         options
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, spans off; 1: per-layer ledger, spans and program registries on")
		calibrate = flag.Bool("calibrate", false, "run two sets of -runs runs per workload, print spreads and gaps, write the bounds into BENCHMARK.json")
		runs      = flag.Int("runs", 10, "calibrate: runs per set and workload (at least 5)")
	)
	flag.StringVar(&o.workload, "workload", "steady-day", "steady-day, saturate-day or weather-churn")
	flag.Int64Var(&o.seed, "seed", 1, "feeds sim.Config.Seed and training, nothing else")
	flag.IntVar(&o.seconds, "seconds", 30, "measured window (six equal segments); a traced run measures a third of it")
	flag.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace files and the coordinator's write-ahead log")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *calibrate {
		if err := runCalibration(o, *runs, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	o.traced = *trace != 0
	rep, err := execute(o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := rep.line()
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
	if len(rep.Gates) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// options is one invocation's arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	outDir   string
	// Only the package's tests set these, to keep their smokes short:
	// env is a set-up shared between runs (else execute builds its own),
	// preCrash the epilogue's pre-crash second.
	env      *env
	preCrash time.Duration
}

// execute runs one workload and returns its report: set-up, pass(es),
// untimed verification, gates. log receives the human-readable part.
func execute(o options, log io.Writer) (*report, error) {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds %d: need at least 1", o.seconds)
	}
	if o.preCrash == 0 {
		o.preCrash = preCrashDelay
	}
	setupStart := time.Now()
	e := o.env
	if e == nil {
		if e, err = newEnv(envConfig{seed: o.seed, exp: benchProfile(o.seed), scenes: scenesFor(wl)}); err != nil {
			return nil, err
		}
		defer e.close()
	}
	envS := time.Since(setupStart).Seconds()

	rep := &report{
		Workload: wl.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		Metrics:   map[string]float64{},
		InputHash: fmt.Sprintf("%016x", e.pool.hash),
	}
	window := time.Duration(o.seconds) * time.Second
	// Warm-up fills every clip ring, pools the workspaces and loads the
	// models; short smoke windows get just the ring fill.
	warmup := maxWarmup
	if o.seconds < 10 {
		warmup = time.Duration(e.clipLen)*framePeriod + 500*time.Millisecond
	}
	cfg := passConfig{
		wl: wl, warmup: warmup, window: window, epilogue: true, preCrash: o.preCrash,
		dataDir: filepath.Join(o.outDir, fmt.Sprintf("wal-%d", os.Getpid())),
	}

	var p *pass
	var baseP50 float64
	if !o.traced {
		p = newPass(e, cfg)
		if err := p.run(); err != nil {
			return nil, err
		}
	} else {
		// The traced run measures a third of the window, after a sixth
		// of it untraced on the same env: the ratio of the two p50s is
		// the tracing overhead.
		base := cfg
		base.window, base.epilogue = max(window/6, time.Second), false
		bp := newPass(e, base)
		if err := bp.run(); err != nil {
			return nil, err
		}
		bl := newLedger(bp)
		baseP50, _ = bl.segmented(bl.latency(), pickQ(0.5))

		cfg.window, cfg.traced = max(window/3, time.Second), true
		p = newPass(e, cfg)
		if err := p.run(); err != nil {
			return nil, err
		}
	}

	l := newLedger(p)
	if o.traced {
		l.layerMetrics(rep.Metrics, baseP50)
		if err := replayLayers(e, wl, rep.Metrics); err != nil {
			return nil, err
		}
		rep.Metrics["setup.train_s"] = e.trainS
		rep.Metrics["setup.fit_detector_s"] = e.fitS
		rep.Metrics["setup.render_s"] = e.renderS
		rep.Metrics["setup.topology_s"] = p.topologyS
		rep.Metrics["setup.warmup_s"] = p.warmupS
		tf := &traceFile{Workload: wl.Name, Seed: o.seed,
			WindowUs: [2]float64{float64(l.w0) / 1e3, float64(l.w1) / 1e3}, Frames: l.traces()}
		path, err := writeTraceFile(o.outDir, tf)
		if err != nil {
			return nil, err
		}
		rep.TraceCoverage = 1
		for _, ft := range tf.Frames {
			if c := ft.coverage(); c < rep.TraceCoverage {
				rep.TraceCoverage = c
			}
		}
		fmt.Fprintf(log, "span trees of %d frames written to %s\n", len(tf.Frames), path)
	} else {
		l.endToEndMetrics(rep, envS+p.topologyS)
	}
	rep.Counts = l.counts()
	rep.LiveHeapMB = float64(p.liveHeap) / (1 << 20)
	late := l.lateness()
	rep.LateP50Ms, _ = l.segmented(late, pickQ(0.5))
	rep.LateP99Ms = l.tail(late)
	for _, st := range p.w1.planes {
		if st.MaxBatch > rep.MaxBatch {
			rep.MaxBatch = st.MaxBatch
		}
	}
	rep.Strays = p.pacer.dropped
	for _, f := range p.feeds {
		if f.maxFlight > rep.MaxInFlight {
			rep.MaxInFlight = f.maxFlight
		}
		rep.Strays += f.strays
	}
	agreement, unearned, err := l.verify()
	if err != nil {
		rep.Gates = append(rep.Gates, "verification: "+err.Error())
	}
	rep.UnearnedTurns = unearned
	if !o.traced {
		rep.Metrics["verdict_agreement"] = agreement
	}
	rep.gates(wl, agreement, p.programError())
	rep.print(log)
	return rep, nil
}

// print writes every metric by name with its unit, then the run's
// counts and any gate violations.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d seconds %d traced %v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced)
	for _, s := range rep.specs() {
		if v, ok := rep.Metrics[s.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6f %s\n", s.Name, v, s.Unit)
		}
	}
	if raw, err := json.Marshal(rep); err == nil {
		fmt.Fprintf(w, "run %s\n", raw)
	}
	for _, g := range rep.Gates {
		fmt.Fprintf(w, "GATE FAILED: %s\n", g)
	}
}
