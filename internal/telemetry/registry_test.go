package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterSharding(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "test counter")
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(2)
	g.SetMax(3)
	h.Observe(7)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil metrics must read as zero")
	}
}

func TestGaugeSetMax(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_max", "")
	g.SetMax(5)
	g.SetMax(3)
	if g.Value() != 5 {
		t.Fatalf("max = %d, want 5", g.Value())
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatalf("max = %d, want 9", g.Value())
	}
}

// TestBucketIndexInvariants property-checks the bucket layout: every
// value lands in a valid bucket whose bounds contain it, and the
// upper bound overestimates by at most 25% (exact below histSmall).
func TestBucketIndexInvariants(t *testing.T) {
	check := func(v int64) bool {
		if v < 0 {
			v = -v
		}
		i := bucketIndex(v)
		if i < 0 || i >= histBuckets {
			return false
		}
		upper := bucketUpper(i)
		if v > upper {
			return false
		}
		if v < histSmall {
			return upper == v
		}
		return float64(upper) <= float64(v)*1.25+1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Boundary spot checks.
	for _, v := range []int64{0, 1, 15, 16, 17, 1 << 20, math.MaxInt64} {
		i := bucketIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("value %d: bucket %d out of range", v, i)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "", UnitSeconds)
	// 100 observations: 1ms..100ms.
	for i := 1; i <= 100; i++ {
		h.ObserveDuration(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := time.Duration(h.Sum()), 5050*time.Millisecond; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	p50 := h.QuantileDuration(0.50)
	if p50 < 50*time.Millisecond || p50 > 63*time.Millisecond {
		t.Fatalf("p50 = %v, want ≈50ms (≤25%% bucket overestimate)", p50)
	}
	p99 := h.QuantileDuration(0.99)
	if p99 < 99*time.Millisecond || p99 > 125*time.Millisecond {
		t.Fatalf("p99 = %v, want ≈99ms", p99)
	}
	// The p=100 edge: must return the exact maximum, never index past
	// the distribution (the bug the old sorted-sample percentile had).
	if got := h.QuantileDuration(1.0); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want exactly the max 100ms", got)
	}
	if got := h.QuantileDuration(1.5); got != 100*time.Millisecond {
		t.Fatalf("p>100 must clamp to max, got %v", got)
	}
	if got := h.QuantileDuration(-1); got <= 0 {
		t.Fatalf("p<0 must clamp to the smallest bucket, got %v", got)
	}
}

func TestHistogramEmptyAndConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_concurrent_seconds", "", UnitSeconds)
	if h.Quantile(0.99) != 0 || h.Quantile(1) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must read as zero")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(int64(i*1000 + j))
			}
		}(i)
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
	if h.Max() != 7499 {
		t.Fatalf("max = %d, want 7499", h.Max())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("shared_total", "")
	b := r.Counter("shared_total", "")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-kind reuse must panic")
		}
	}()
	r.Gauge("shared_total", "")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "total requests").Add(7)
	r.Gauge("depth", "queue depth").Set(3)
	r.GaugeFunc("computed", "computed gauge", func() int64 { return 42 })
	h := r.Histogram("latency_seconds", "request latency", UnitSeconds)
	h.ObserveDuration(2 * time.Millisecond)
	h.ObserveDuration(8 * time.Millisecond)
	lh := r.Histogram(`load_seconds{method="pipeswitch"}`, "load latency", UnitSeconds)
	lh.ObserveDuration(5 * time.Millisecond)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE requests_total counter",
		"requests_total 7",
		"depth 3",
		"computed 42",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="+Inf"} 2`,
		"latency_seconds_count 2",
		`load_seconds_bucket{method="pipeswitch",le="+Inf"} 1`,
		`load_seconds_count{method="pipeswitch"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(2)
	h := r.Histogram("h_seconds", "", UnitSeconds)
	h.ObserveDuration(time.Second)
	snap := r.Snapshot()
	if snap.Value("c_total") != 2 {
		t.Fatalf("snapshot counter = %v", snap.Value("c_total"))
	}
	var fed FedSnapshot
	raw, err := json.Marshal(snap.Fed())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &fed); err != nil {
		t.Fatalf("fed snapshot round trip: %v\n%s", err, raw)
	}
	if fed.Values["c_total"] != 2 {
		t.Fatalf("snapshot JSON counter = %v", fed.Values["c_total"])
	}
	hs := fed.Hists["h_seconds"]
	if hs.Count != 1 || hs.Unit != UnitSeconds || hs.Max != int64(time.Second) {
		t.Fatalf("snapshot histogram = %+v", hs)
	}
	if snap.Count("h_seconds") != 1 || snap.QuantileDuration("h_seconds", 1) != time.Second {
		t.Fatalf("typed histogram accessors: count=%d p100=%v",
			snap.Count("h_seconds"), snap.QuantileDuration("h_seconds", 1))
	}
}

// TestGaugeFuncReplaceDuringExport re-registers a computed gauge while
// exports run; under -race it fails if an export reads the function
// field unsynchronised.
func TestGaugeFuncReplaceDuringExport(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("g", "", func() int64 { return 1 })
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r.GaugeFunc("g", "", func() int64 { return 2 })
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = r.WritePrometheus(io.Discard)
			if v := r.Snapshot().Value("g"); v != 1 && v != 2 {
				t.Errorf("gauge read %d, want 1 or 2", v)
				return
			}
		}
	}()
	wg.Wait()
}
