package main

import "testing"

func TestParseLineStandardAndCustomMetrics(t *testing.T) {
	b, ok := parseLine("BenchmarkServe_MultiIntersection/batched-4gpu \t 16\t69781386 ns/op\t 1.333 mean-batch\t 557.1 virt-clip/s\t37135728 B/op\t 13855 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if b.Name != "BenchmarkServe_MultiIntersection/batched-4gpu" || b.Iterations != 16 {
		t.Fatalf("name/iters = %q/%d", b.Name, b.Iterations)
	}
	if b.NsPerOp != 69781386 || b.BytesPerOp != 37135728 || b.AllocsPerOp != 13855 {
		t.Fatalf("standard metrics = %v/%v/%v", b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
	}
	if b.Metrics["mean-batch"] != 1.333 || b.Metrics["virt-clip/s"] != 557.1 {
		t.Fatalf("custom metrics = %v", b.Metrics)
	}
}

func TestMissingRequired(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkServe_MultiIntersection/batched-4gpu"},
		{Name: "BenchmarkDetectEval_Yolite"},
	}
	if m := missingRequired("", benches); m != nil {
		t.Fatalf("empty require reported missing %v", m)
	}
	if m := missingRequired("BenchmarkServe, BenchmarkDetectEval", benches); m != nil {
		t.Fatalf("satisfied require reported missing %v", m)
	}
	m := missingRequired("BenchmarkServe,BenchmarkFewshotAdapt", benches)
	if len(m) != 1 || m[0] != "BenchmarkFewshotAdapt" {
		t.Fatalf("missing = %v, want [BenchmarkFewshotAdapt]", m)
	}
}

func TestParseLineRejectsNonBenchmarkLines(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"pkg: safecross",
		"PASS",
		"ok  \tsafecross\t9.060s",
		"",
		"Benchmark without iteration count",
	} {
		if _, ok := parseLine(line); ok {
			t.Fatalf("line %q parsed as a benchmark", line)
		}
	}
}

func TestAllocRegressions(t *testing.T) {
	base := []Benchmark{
		{Name: "BenchmarkConv3DEval/fast.conv1/real-2"},
		{Name: "BenchmarkSlowFastStream/full-2", AllocsPerOp: 4},
	}
	got := []Benchmark{
		{Name: "BenchmarkConv3DEval/fast.conv1/real-8"},
		{Name: "BenchmarkSlowFastStream/full-8", AllocsPerOp: 3},
	}
	if bad := allocRegressions(base, got); bad != nil {
		t.Fatalf("rows at or under their committed allocs reported %v", bad)
	}
	got = append(got,
		Benchmark{Name: "BenchmarkSlowFastStream/stream-8"},
		Benchmark{Name: "BenchmarkConv3DEval/fuse.conv1/real-8", AllocsPerOp: 1},
	)
	got[1].AllocsPerOp = 5
	bad := allocRegressions(base, got)
	want := []string{
		"BenchmarkSlowFastStream/full: 5 allocs/op, committed 4",
		"BenchmarkSlowFastStream/stream: no committed row",
		"BenchmarkConv3DEval/fuse.conv1/real: no committed row",
	}
	if len(bad) != len(want) {
		t.Fatalf("regressions = %q, want %q", bad, want)
	}
	for i := range want {
		if bad[i] != want[i] {
			t.Fatalf("regressions = %q, want %q", bad, want)
		}
	}
}
