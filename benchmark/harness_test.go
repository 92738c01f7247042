package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"safecross/internal/experiments"
	"safecross/internal/rsu"
	"safecross/internal/sim"
)

func TestQuantilePicks(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {0.9, 90}, {1, 100}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

// A percentile is only reported with at least ten samples beyond it.
func TestSupportedQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{2400, 0.99}, // 24 beyond p99
		{1000, 0.99}, // exactly ten beyond
		{999, 989.0 / 999},
		{100, 0.9},
		{15, 0.5}, // never under the median
	} {
		got := supportedQuantile(c.n, 0.99)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("supportedQuantile(%d, 0.99) = %v, want %v", c.n, got, c.want)
		}
		if beyond := c.n - int(math.Ceil(got*float64(c.n))); c.n >= 20 && beyond < tailSupport {
			t.Errorf("n=%d: only %d samples beyond the reported quantile %v", c.n, beyond, got)
		}
	}
}

// One stalled segment moves one segment's value, not the run's.
func TestSegmentMedianShrugsOffOneStall(t *testing.T) {
	var at, vals []float64
	for seg := 0; seg < segments; seg++ {
		for i := 0; i < 100; i++ {
			at = append(at, float64(seg*100+i))
			v := 2.0
			if seg == 3 && i >= 90 {
				v = 90 // a stall: the top tenth of one segment
			}
			vals = append(vals, v)
		}
	}
	whole := append([]float64(nil), vals...)
	if got, _ := segmentMedian(at, whole, 0, 600, pickQ(0.99)); got != 2 {
		t.Errorf("segment-median p99 = %v, want 2", got)
	}
	if got, n := segmentMedian(at, vals, 0, 600, pickQ(0.5)); got != 2 || n != 100 {
		t.Errorf("segment-median p50 = %v over %d per segment, want 2 over 100", got, n)
	}
	// Samples outside [from, to) are not scored; empty segments are skipped.
	if got, n := segmentMedian([]float64{-1, 600, 5}, []float64{9, 9, 1}, 0, 600, pickQ(0.5)); got != 1 || n != 1 {
		t.Errorf("out-of-window samples leaked in: %v over %d", got, n)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(vals)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

// An open-loop frame's latency counts from when it was due, not from
// when a stalled runner got round to it, and the schedule does not slip.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	clk := &clock{t0: time.Now()}
	pc, err := startPacer(clk)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.close()
	const period, stall = 5 * time.Millisecond, 40 * time.Millisecond
	f := newFeed(source{}, false, clk, 64)
	f.period = int64(period)
	first := clk.now() + int64(period)
	f.start(pc, first)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	late := map[int]time.Duration{}
	for i := 0; i < 14; i++ {
		n, due, ok := f.next(ctx, i == 0)
		if !ok {
			t.Fatal("feed stopped early")
		}
		if n != i+1 {
			t.Fatalf("frame %d came out as number %d", i+1, n)
		}
		if want := first + int64(i)*int64(period); due != want {
			t.Fatalf("frame %d due at %d, schedule says %d: the stall moved the schedule", n, due, want)
		}
		late[n] = time.Duration(clk.now() - due)
		if n == 3 {
			time.Sleep(stall) // the generator is made to run late
		}
	}
	// Frame 4 fell due one period into the stall; send-time accounting
	// would call it punctual.
	if late[4] < stall-2*period {
		t.Errorf("frame 4 is charged %v of lateness, want about %v", late[4], stall-period)
	}
	if late[2] > stall/4 {
		t.Errorf("frame 2, before the stall, is %v late", late[2])
	}
	if late[13] >= late[4] {
		t.Errorf("the backlog never drained: frame 13 is %v late, frame 4 was %v", late[13], late[4])
	}
}

// The feed's first runner takes a backlog in order — the reference replay
// needs every frame from the first — while a runner taking over after a
// failover starts at the newest frame owed.
func TestOnlyATakeoverSkipsTheBacklog(t *testing.T) {
	f := newFeed(source{}, false, &clock{t0: time.Now()}, 64)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	expect := func(fresh bool, wantN int, wantDue int64) {
		t.Helper()
		if n, due, ok := f.next(ctx, fresh); !ok || n != wantN || due != wantDue {
			t.Errorf("next(fresh=%v) = frame %d due %d (ok %v), want frame %d due %d", fresh, n, due, ok, wantN, wantDue)
		}
	}
	for due := int64(1); due <= 3; due++ {
		f.tick <- due // three frames fall due before any runner asks
	}
	expect(true, 1, 1)
	expect(false, 2, 2)
	f.tick <- 4
	f.tick <- 5 // frames 3 to 5 fall into a failover gap
	expect(true, 5, 5)
}

// A closed loop on receipt never has two frames of one feed in flight,
// and each frame is due the instant the previous advisory arrived.
func TestClosedLoopOneInFlight(t *testing.T) {
	clk := &clock{t0: time.Now()}
	f := newFeed(source{}, true, clk, 1024)
	f.start(nil, clk.now())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	wire := make(chan int, 8) // more room than the loop may ever use
	var vehicle sync.WaitGroup
	vehicle.Add(1)
	go func() {
		defer vehicle.Done()
		for n := range wire {
			f.received(rsu.Message{Type: rsu.TypeAdvisory, Intersection: 1, Frame: n, Ready: true}, clk.now())
		}
	}()
	const frames = 500
	for i := 0; i < frames; i++ {
		n, due, ok := f.next(ctx, i == 0)
		if !ok {
			t.Fatal("feed stopped early")
		}
		f.commit(n, &frameRec{due: due, call: clk.now(), sent: true, label: -1})
		wire <- n
	}
	close(wire)
	vehicle.Wait()
	if f.maxFlight != 1 {
		t.Errorf("closed loop had %d frames in flight, want 1", f.maxFlight)
	}
	recs := f.snapshot()
	if len(recs) != frames {
		t.Fatalf("ledger holds %d frames, want %d", len(recs), frames)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].due != recs[i-1].recv {
			t.Fatalf("frame %d due at %d, previous advisory received at %d", i+1, recs[i].due, recs[i-1].recv)
		}
	}
	if f.strays != 0 {
		t.Errorf("%d stray receipts", f.strays)
	}
}

// tinyProfile trains in a fraction of a second: enough for smokes and
// determinism checks, which assert shape, not accuracy.
func tinyProfile(seed int64) experiments.Config {
	return experiments.Config{Scale: 0.02, ClipLen: 8, Epochs: 2, AdaptSteps: 2, AdaptLR: 0.03, Seed: seed}
}

// shared is one seed-1 set-up for every test that needs one; TestMain
// releases it.
var shared struct {
	once sync.Once
	env  *env
	err  error
}

func sharedEnv(t *testing.T) *env {
	t.Helper()
	shared.once.Do(func() {
		shared.env, shared.err = newEnv(envConfig{seed: 1, exp: tinyProfile(1), scenes: allScenes})
	})
	if shared.err != nil {
		t.Fatal(shared.err)
	}
	return shared.env
}

func TestMain(m *testing.M) {
	code := m.Run()
	if shared.env != nil {
		shared.env.close()
	}
	os.Exit(code)
}

func fingerprint(t *testing.T, e *env) (hash uint64, verdicts []verdict) {
	t.Helper()
	verdicts, err := replayReference(e, newSource(e.pool, workloads[2], 1), 2*churnEvery)
	if err != nil {
		t.Fatal(err)
	}
	return e.pool.hash, verdicts
}

func TestSeedDecidesInputsAndReference(t *testing.T) {
	fresh := func(seed int64) *env {
		e, err := newEnv(envConfig{seed: seed, exp: tinyProfile(seed), scenes: allScenes})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.close)
		return e
	}
	h1, v1 := fingerprint(t, sharedEnv(t))
	h1again, v1again := fingerprint(t, fresh(1))
	h2, v2 := fingerprint(t, fresh(2))
	if h1 != h1again {
		t.Errorf("seed 1 rendered two different input pools: %016x and %016x", h1, h1again)
	}
	if !reflect.DeepEqual(v1, v1again) {
		t.Error("seed 1 gave two different reference verdict sequences")
	}
	if h1 == h2 {
		t.Errorf("seeds 1 and 2 rendered the same input pool %016x", h1)
	}
	if reflect.DeepEqual(v1, v2) {
		t.Error("seeds 1 and 2 gave the same reference verdicts")
	}
	ready := 0
	for _, v := range v1 {
		if v.ready {
			ready++
		}
	}
	if ready == 0 {
		t.Error("the reference never had a full ring")
	}
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Command) == 0 || len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("command %v paths %v", bf.Command, bf.Paths)
	}
	if bf.RunSeconds < segments*5 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d: want six 5 s segments at least, a minute at most", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the harness", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %q, harness %q", i, bf.Workloads[i].Name, w.Name)
		}
	}
	same := func(kind string, file, table []metricSpec) {
		if len(file) != len(table) {
			t.Fatalf("%s: %d metrics in the file, %d in the harness", kind, len(file), len(table))
		}
		for i, m := range table {
			got := file[i]
			if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
				t.Errorf("%s %d: file has %+v, harness %+v", kind, i, got, m)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	for i, m := range bf.EndToEnd {
		if m.Bound < endToEnd[i].floor || m.Bound > maxBound {
			t.Errorf("%s: bound %v outside [%v, %v]", m.Name, m.Bound, endToEnd[i].floor, maxBound)
		}
	}
	for _, m := range bf.PerLayer {
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}

// TestSmoke runs every workload, and one traced run, end to end on a
// one-second window. It asserts shape — every metric named in
// BENCHMARK.json is measured, the result line has the contract's keys,
// the spans tile — and not timing: gate violations are logged, because
// a loaded test machine may legitimately trip the timing gates.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the whole fleet topology")
	}
	e := sharedEnv(t)
	for _, c := range []struct {
		workload string
		traced   bool
	}{
		{"steady-day", false}, {"saturate-day", false}, {"weather-churn", false}, {"weather-churn", true},
	} {
		name := c.workload
		if c.traced {
			name += "-traced"
		}
		t.Run(name, func(t *testing.T) {
			out := t.TempDir()
			rep, err := execute(options{
				workload: c.workload, seed: 1, seconds: 1, traced: c.traced,
				outDir: out, env: e, preCrash: 100 * time.Millisecond,
			}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range rep.Gates {
				t.Logf("gate: %s", g)
			}
			specs := rep.specs()
			line, err := rep.line()
			if err != nil {
				t.Fatal(err)
			}
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatal(err)
			}
			if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
				t.Errorf("result line keys: %s", line)
			}
			var metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			}
			if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(specs) {
				t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(metrics), len(specs))
			}
			for _, s := range specs {
				if m, ok := metrics[s.Name]; !ok || m.Value == nil || m.Unit != s.Unit {
					t.Errorf("metric %s missing or without its unit %q", s.Name, s.Unit)
				}
			}
			if rep.Counts.Received == 0 || rep.Counts.Moved == 0 {
				t.Errorf("nothing measured: %+v", rep.Counts)
			}
			if wl, _ := findWorkload(c.workload); wl.closed && rep.MaxInFlight != 1 {
				t.Errorf("closed loop had %d frames of one feed in flight", rep.MaxInFlight)
			}
			if !c.traced {
				return
			}
			raw, err := os.ReadFile(filepath.Join(out, "trace-"+c.workload+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Frames) == 0 {
				t.Fatal("trace file holds no frames")
			}
			for _, ft := range tf.Frames {
				names := make([]string, 0, len(ft.Spans))
				for _, s := range ft.Spans {
					names = append(names, s.Name)
				}
				joined := strings.Join(names, " ")
				for _, want := range []string{spanFrame, spanLate, spanProcess, spanBroadcast, spanWire} {
					if !strings.Contains(joined, want) {
						t.Fatalf("frame %s lacks span %s: %s", ft.ID, want, joined)
					}
				}
				if cov := ft.coverage(); math.Abs(cov-1) > 0.01 {
					t.Fatalf("frame %s: child spans cover %.4f of the frame", ft.ID, cov)
				}
			}
			scenes := map[sim.Weather]bool{}
			for _, ft := range tf.Frames {
				scenes[newSource(nil, workloads[2], ft.Intersection-1).scene(ft.Frame)] = true
			}
			if len(scenes) < 2 {
				t.Errorf("weather-churn's traced window saw scenes %v, want a flip", scenes)
			}
		})
	}
}
