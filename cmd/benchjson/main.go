// Command benchjson converts `go test -bench` text output (read from
// stdin) into a machine-readable JSON record, so benchmark runs can be
// diffed across commits. When the output file already exists, its
// current benchmark set is rolled into a "previous" field, keeping a
// one-step before/after trajectory alongside every refresh:
//
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/benchjson -out BENCH_infer.json
//
// The -require flag takes comma-separated name substrings that must
// each match at least one parsed benchmark; a run that silently skips
// a hot path (e.g. a typo in the -bench regex) then fails loudly
// instead of writing a report with a hole in it.
//
// With -compare, nothing is written: every parsed row is checked
// against the same-named row of a committed report, and the command
// exits non-zero if any row allocates more per op than the committed
// value, or has no committed row to check against. Names match with the
// -GOMAXPROCS suffix dropped, so a report from one host gates another:
//
//	go test -run '^$' -bench BenchmarkConv3DEval -benchmem -benchtime=200x . | go run ./cmd/benchjson -compare BENCH_infer.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line. The standard ns/op,
// B/op and allocs/op measurements get their own fields; every other
// "value unit" pair (custom b.ReportMetric metrics such as
// virt-clip/s, or telemetry-registry scrapes like queue-wait-p99-µs
// and switch-cost-p99-µs from BenchmarkServe_MultiIntersection) lands
// in Metrics.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the file layout: the latest run plus the run it replaced.
type Report struct {
	Go         string      `json:"go"`
	Host       string      `json:"host,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Previous   []Benchmark `json:"previous,omitempty"`
}

// parseLine parses one benchmark output line, e.g.
//
//	BenchmarkFoo/bar-8   	 100	 12345 ns/op	 64 B/op	 2 allocs/op	 1.5 widgets
//
// Returns ok=false for non-benchmark lines (goos:, PASS, etc.).
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.Atoi(fields[1])
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	// The rest is "value unit" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

// missingRequired returns the entries of require (comma-separated
// substrings) that match none of the parsed benchmark names. An empty
// require string demands nothing.
func missingRequired(require string, benches []Benchmark) []string {
	var missing []string
	for _, want := range strings.Split(require, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		found := false
		for _, b := range benches {
			if strings.Contains(b.Name, want) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, want)
		}
	}
	return missing
}

// procSuffix is the -GOMAXPROCS suffix go test appends to a name.
var procSuffix = regexp.MustCompile(`-[0-9]+$`)

// allocRegressions lists the rows of got that allocate more per op
// than their committed row in base, or that have no committed row.
func allocRegressions(base, got []Benchmark) []string {
	committed := make(map[string]float64, len(base))
	for _, b := range base {
		committed[procSuffix.ReplaceAllString(b.Name, "")] = b.AllocsPerOp
	}
	var bad []string
	for _, b := range got {
		name := procSuffix.ReplaceAllString(b.Name, "")
		want, ok := committed[name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: no committed row", name))
		case b.AllocsPerOp > want:
			bad = append(bad, fmt.Sprintf("%s: %g allocs/op, committed %g", name, b.AllocsPerOp, want))
		}
	}
	return bad
}

func run(out, require, compare string) error {
	var benches []Benchmark
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the human-readable output through
		if b, ok := parseLine(line); ok {
			benches = append(benches, b)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("benchjson: read stdin: %w", err)
	}
	if len(benches) == 0 {
		return fmt.Errorf("benchjson: no benchmark lines on stdin")
	}
	if missing := missingRequired(require, benches); len(missing) > 0 {
		return fmt.Errorf("benchjson: required benchmarks missing from input: %s", strings.Join(missing, ", "))
	}

	if compare != "" {
		raw, err := os.ReadFile(compare)
		if err != nil {
			return fmt.Errorf("benchjson: %w", err)
		}
		var base Report
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("benchjson: %s: %w", compare, err)
		}
		if bad := allocRegressions(base.Benchmarks, benches); len(bad) > 0 {
			return fmt.Errorf("benchjson: allocations above %s:\n  %s", compare, strings.Join(bad, "\n  "))
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks within %s allocs/op\n", len(benches), compare)
		return nil
	}

	rep := Report{
		Go:         runtime.Version(),
		Host:       runtime.GOOS + "/" + runtime.GOARCH,
		Benchmarks: benches,
	}
	// Roll the existing run into "previous" so the file always carries
	// its own before/after comparison.
	if raw, err := os.ReadFile(out); err == nil {
		var old Report
		if err := json.Unmarshal(raw, &old); err == nil {
			rep.Previous = old.Benchmarks
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("benchjson: marshal: %w", err)
	}
	if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
		return fmt.Errorf("benchjson: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(benches), out)
	return nil
}

func main() {
	out := flag.String("out", "BENCH_infer.json", "output JSON file")
	require := flag.String("require", "", "comma-separated name substrings that must each match a parsed benchmark, else exit non-zero")
	compare := flag.String("compare", "", "committed report to gate allocs/op against; nothing is written")
	flag.Parse()
	if err := run(*out, *require, *compare); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
