package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// maxBound is the widest bound the contract accepts; a metric that
// needs more does not belong among the end-to-end metrics.
const maxBound = 0.25

// runCalibration is noise rule 8: bounds are measured, not guessed. It
// runs two sets of runs per workload (each run a fresh process, each
// with its own seed), prints every end-to-end metric's per-set median,
// quartiles and spread and the gap between the sets' medians, and
// writes max(floor, 2 x gap, 3 x spread) — capped at a quarter — into
// BENCHMARK.json. It fails if the two sets disagree by more than the
// bound it would write.
func runCalibration(o options, runs int, w io.Writer) error {
	if runs < 5 {
		return fmt.Errorf("-runs %d: calibration needs at least 5 per set", runs)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	started := time.Now()
	fmt.Fprintf(w, "calibration: 2 sets x %d runs x %d workloads, %d s windows; set A seeds 1..%d, set B seeds %d..%d\n",
		runs, len(workloads), o.seconds, runs, runs+1, 2*runs)
	var failures []string
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, wl := range workloads {
			values[set][wl.Name] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				seed := set*runs + i + 1
				runStart := time.Now()
				metrics, err := runOnce(self, wl.Name, seed, o)
				if err != nil {
					// One bad run does not void forty minutes of the others;
					// it is reported and fails the calibration at the end.
					failures = append(failures, fmt.Sprintf("set %c %s seed %d: %v", 'A'+set, wl.Name, seed, err))
					fmt.Fprintf(w, "  set %c %-13s seed %2d  FAILED: %v\n", 'A'+set, wl.Name, seed, err)
					continue
				}
				for name, v := range metrics {
					values[set][wl.Name][name] = append(values[set][wl.Name][name], v)
				}
				fmt.Fprintf(w, "  set %c %-13s seed %2d  %5.1f s  p50 %.4f ms  p99 %.4f ms  %.1f frames/s  setup %.2f s\n", 'A'+set, wl.Name, seed,
					time.Since(runStart).Seconds(), metrics["frame_to_advisory_p50_ms"], metrics[watchP99], metrics["frames_per_s"], metrics["setup_s"])
			}
		}
	}

	bounds := map[string]float64{}
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n%s\n%-26s %-8s %36s %36s %8s\n", wl.Name, "metric", "unit",
			"set A median [q1, q3] spread", "set B median [q1, q3] spread", "gap")
		row := func(name, unit string) (worst, gap float64) {
			a, b := values[0][wl.Name][name], values[1][wl.Name][name]
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			aspread, bspread := spread(aq1, amed, aq3), spread(bq1, bmed, bq3)
			if amed != 0 {
				gap = (bmed - amed) / amed
			}
			fmt.Fprintf(w, "%-26s %-8s %12.5g [%10.5g, %10.5g] %5.2f%% %12.5g [%10.5g, %10.5g] %5.2f%% %+7.2f%%\n",
				name, unit, amed, aq1, aq3, 100*aspread, bmed, bq1, bq3, 100*bspread, 100*gap)
			return math.Max(aspread, bspread), gap
		}
		for _, m := range endToEnd {
			worst, gap := row(m.Name, m.Unit)
			need := math.Max(m.floor, math.Max(2*math.Abs(gap), 3*worst))
			need = math.Ceil(need*1000) / 1000
			if need > bounds[m.Name] {
				bounds[m.Name] = need
			}
			if m.Name != "setup_s" && worst > maxBound {
				failures = append(failures, fmt.Sprintf("%s/%s: spread %.1f%% over a quarter", wl.Name, m.Name, 100*worst))
			}
			if math.Abs(gap) > maxBound {
				failures = append(failures, fmt.Sprintf("%s/%s: sets differ by %.1f%%, over a quarter", wl.Name, m.Name, 100*gap))
			}
		}
		fmt.Fprintln(w, "not bounded (per-layer on this box; shown so the reader sees why):")
		for _, m := range watched {
			row(m.Name, m.Unit)
		}
	}

	fmt.Fprintf(w, "\n%-26s %8s %8s\n", "bounds", "floor", "written")
	for _, m := range endToEnd {
		note := ""
		if bounds[m.Name] > maxBound {
			note = fmt.Sprintf("  (wanted %.3f: some spread is over a third of the cap)", bounds[m.Name])
			bounds[m.Name] = maxBound
		}
		fmt.Fprintf(w, "%-26s %8.3f %8.3f%s\n", m.Name, m.floor, bounds[m.Name], note)
	}
	fmt.Fprintf(w, "\ncalibration took %.0f s\n", time.Since(started).Seconds())
	if len(failures) > 0 {
		return fmt.Errorf("calibration failed, BENCHMARK.json not written:\n  %s", strings.Join(failures, "\n  "))
	}
	if err := writeBenchmarkFile("BENCHMARK.json", o.seconds, bounds); err != nil {
		return err
	}
	fmt.Fprintln(w, "bounds written to BENCHMARK.json")
	return nil
}

func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// The run line's readings that carry no bound: calibration prints their
// spreads beside the bounded ones.
const (
	watchP90  = "latency p90"
	watchP95  = "latency p95"
	watchP99  = "latency p99"
	watchHeap = "live heap"
	watchLate = "loadgen.late p99"
)

var watched = []metricSpec{
	{Name: watchP90, Unit: "ms"}, {Name: watchP95, Unit: "ms"}, {Name: watchP99, Unit: "ms"},
	{Name: watchHeap, Unit: "MiB"}, {Name: watchLate, Unit: "ms"},
}

// runOnce runs one untraced workload in a child process and parses the
// result line off its standard output.
func runOnce(self, workload string, seed int, o options) (map[string]float64, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.Itoa(o.seconds), "-trace", "0", "-out", o.outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	// The "run" line carries the counts, gates and unbounded readings;
	// the last non-empty line is the contract's result line.
	var run report
	var last string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "run "); ok {
			if err := json.Unmarshal([]byte(rest), &run); err != nil {
				return nil, fmt.Errorf("run line %q: %w", rest, err)
			}
		}
		if line = strings.TrimSpace(line); line != "" {
			last = line
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("%w: %+v, gates %q", runErr, run.Counts, run.Gates)
	}
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("run was not clean: %+v, gates %q", run.Counts, run.Gates)
	}
	out := map[string]float64{
		watchP90: run.Quantiles["p90"], watchP95: run.Quantiles["p95"], watchP99: run.Quantiles["p99"],
		watchHeap: run.LiveHeapMB, watchLate: run.LateP99Ms,
	}
	for name, m := range res.Metrics {
		out[name] = m.Value
	}
	return out, nil
}
