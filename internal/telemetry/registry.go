// Package telemetry is SafeCross's dependency-free observability
// layer: a concurrent metrics registry (counters, gauges, fixed-bucket
// latency histograms), per-request trace spans carried on
// context.Context, a leveled logger, and exporters (Prometheus text
// format, JSON snapshots, expvar/pprof over an optional debug HTTP
// listener).
//
// The registry is built for hot paths. Recording never takes a lock:
// counters and histogram buckets are sharded atomics (shards picked
// with a per-thread random source, cache-line padded against false
// sharing), so serving workers, the scheduler, and RSU broadcast
// goroutines can all record concurrently without serialising on a
// mutex. Lookup and registration do lock, so callers resolve their
// metrics once at wiring time and hold the pointers.
//
// Metric names follow Prometheus conventions (snake_case, unit
// suffixes such as _seconds and _total). A name may embed a label set
// in Prometheus form — `pipeswitch_load_seconds{method="pipeswitch"}`
// — and the text exporter merges those labels into bucket lines
// correctly. Every constructor is get-or-create: asking for an
// existing name returns the existing metric, so subsystems sharing a
// registry aggregate instead of colliding.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	randv2 "math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// numShards is the per-metric shard count; recording picks a shard
// with a cheap per-thread random draw, so concurrent writers mostly
// touch different cache lines. Must be a power of two.
const numShards = 8

// paddedInt64 is an atomic counter padded out to its own cache line.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// shard picks this call's shard. math/rand/v2's global functions draw
// from a per-thread generator in the runtime — no shared state, a few
// nanoseconds per call.
func shard() uint32 { return randv2.Uint32() & (numShards - 1) }

// Counter is a monotonically increasing sharded atomic counter. The
// zero value is unusable; obtain counters from a Registry. A nil
// *Counter is a valid no-op, so unwired call sites cost one branch.
type Counter struct {
	shards [numShards]paddedInt64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.shards[shard()].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Gauge is an instantaneous atomic value. A nil *Gauge is a valid
// no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v when v exceeds the current value
// (a lock-free running maximum).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an instantaneous float64 value (burn rates, ratios) —
// stored as atomic bits, so Set/Value never lock. A nil *FloatGauge
// is a valid no-op.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket layout: values 0..15 get exact unit buckets (so
// small integer distributions such as batch sizes are loss-free), and
// larger values land in log-linear buckets — four linear sub-buckets
// per power of two, bounding the quantile overestimate at 25%.
const (
	histSmall   = 16 // exact buckets for values 0..15
	histBuckets = histSmall + (63-4)*4
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSmall {
		return int(v)
	}
	e := bits.Len64(uint64(v)) // 2^(e-1) <= v < 2^e, e >= 5
	sub := int((uint64(v) >> (e - 3)) & 3)
	return histSmall + (e-5)*4 + sub
}

// bucketUpper is the inclusive upper bound of bucket i.
func bucketUpper(i int) int64 {
	if i < histSmall {
		return int64(i)
	}
	i -= histSmall
	e := i/4 + 5
	low := uint64(1) << (e - 1)
	width := low / 4
	upper := low + uint64(i%4+1)*width
	if upper > math.MaxInt64 {
		return math.MaxInt64 // the top octave's last bucket caps at int64 range
	}
	return int64(upper)
}

// Unit declares how a histogram's int64 observations should be
// rendered by the exporters.
type Unit int

const (
	// UnitSeconds marks nanosecond observations exported as seconds.
	UnitSeconds Unit = iota
	// UnitCount marks dimensionless observations (batch sizes, queue
	// depths) exported as raw numbers.
	UnitCount
)

// histShard is one shard of a histogram's bucket array.
type histShard struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	_       [56]byte
}

// Histogram is a fixed-bucket distribution over non-negative int64
// observations (latencies in nanoseconds, sizes in units). Recording
// is lock-free: each observation lands in one sharded atomic bucket.
// A nil *Histogram is a valid no-op.
type Histogram struct {
	unit   Unit
	shards [numShards]histShard
	max    Gauge
}

// Observe records one value; negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	s := &h.shards[shard()]
	s.buckets[bucketIndex(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
	h.max.SetMax(v)
}

// ObserveDuration records a duration observation (nanoseconds).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.shards {
		n += h.shards[i].count.Load()
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	var s int64
	for i := range h.shards {
		s += h.shards[i].sum.Load()
	}
	return s
}

// Max returns the largest observation so far (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Value() }

// CountOver returns how many observations exceeded threshold, resolved
// from the bucket layout: every bucket whose upper bound lies above the
// threshold counts in full, so the answer can overstate by at most one
// bucket's population when the threshold falls inside a bucket — a
// deterministic, conservative error for SLO accounting.
func (h *Histogram) CountOver(threshold int64) int64 {
	if h == nil {
		return 0
	}
	buckets, count, _ := h.snapshot()
	return countOverFromBuckets(&buckets, count, threshold)
}

// countOverFromBuckets is CountOver over a merged bucket array —
// shared between live histograms and frozen snapshot state.
func countOverFromBuckets(buckets *[histBuckets]int64, count, threshold int64) int64 {
	var within int64
	for i := range buckets {
		if bucketUpper(i) > threshold {
			break
		}
		within += buckets[i]
	}
	return count - within
}

// snapshot merges the shards into one bucket array.
func (h *Histogram) snapshot() (buckets [histBuckets]int64, count, sum int64) {
	for i := range h.shards {
		s := &h.shards[i]
		for b := range s.buckets {
			buckets[b] += s.buckets[b].Load()
		}
		count += s.count.Load()
		sum += s.sum.Load()
	}
	return buckets, count, sum
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) as the upper bound of
// the bucket holding the target rank — an overestimate of at most one
// bucket width. Out-of-range q clamps: q ≤ 0 returns the smallest
// bucket bound observed, q ≥ 1 returns the exact maximum (so the
// p=100 edge that would index past a sorted sample is well-defined
// here). An empty histogram returns 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	buckets, count, _ := h.snapshot()
	return quantileFromBuckets(&buckets, count, h.Max(), q)
}

// quantileFromBuckets resolves a quantile from a merged bucket array —
// shared between live histograms and frozen Snapshot state.
func quantileFromBuckets(buckets *[histBuckets]int64, count, max int64, q float64) int64 {
	if count == 0 {
		return 0
	}
	if q >= 1 {
		return max
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range buckets {
		seen += buckets[i]
		if seen >= rank {
			upper := bucketUpper(i)
			if upper > max {
				upper = max // never report beyond the observed maximum
			}
			return upper
		}
	}
	return max
}

// QuantileDuration returns Quantile(q) as a time.Duration; it is only
// meaningful for UnitSeconds histograms.
func (h *Histogram) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q))
}

// Mean returns the arithmetic mean of all observations (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// metric is one registered entry.
type metric struct {
	name string // full name, possibly with {labels}
	help string
	c    *Counter
	g    *Gauge
	fg   *FloatGauge
	gf   atomic.Pointer[func() int64] // replaced by GaugeFunc while exports read it
	h    *Histogram
}

// Registry is a named collection of metrics. Registration and lookup
// take a lock; recording through the returned metric pointers never
// does.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*metric
	ordered []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// register implements get-or-create; a name reused across kinds is a
// wiring bug and panics.
func (r *Registry) register(name, help string, build func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m
	}
	m := build()
	m.name, m.help = name, help
	r.byName[name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter returns the counter registered under name, creating it if
// absent.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, help, func() *metric { return &metric{c: &Counter{}} })
	if m.c == nil {
		panic(fmt.Sprintf("telemetry: %q already registered as a different kind", name))
	}
	return m.c
}

// Gauge returns the gauge registered under name, creating it if
// absent.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, help, func() *metric { return &metric{g: &Gauge{}} })
	if m.g == nil {
		panic(fmt.Sprintf("telemetry: %q already registered as a different kind", name))
	}
	return m.g
}

// FloatGauge returns the float gauge registered under name, creating
// it if absent.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	m := r.register(name, help, func() *metric { return &metric{fg: &FloatGauge{}} })
	if m.fg == nil {
		panic(fmt.Sprintf("telemetry: %q already registered as a different kind", name))
	}
	return m.fg
}

// GaugeFunc registers a computed gauge whose value is read at export
// time — for values another subsystem already tracks (worker virtual
// clocks, subscriber counts). Re-registering a name replaces the
// function.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	withFn := func() *metric {
		m := &metric{}
		m.gf.Store(&fn)
		return m
	}
	r.register(name, help, withFn).gf.Store(&fn)
}

// Histogram returns the histogram registered under name, creating it
// with the given unit if absent.
func (r *Registry) Histogram(name, help string, unit Unit) *Histogram {
	m := r.register(name, help, func() *metric { return &metric{h: &Histogram{unit: unit}} })
	if m.h == nil {
		panic(fmt.Sprintf("telemetry: %q already registered as a different kind", name))
	}
	return m.h
}

// FindHistogram returns the histogram registered under name, or nil.
// A nil result is safe to record into and reads as empty, so lookup
// misses degrade to no-ops.
func (r *Registry) FindHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m.h
	}
	return nil
}

// snapshotMetrics copies the ordered metric list (sorted by name) so
// exporters iterate without holding the lock.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	out := append([]*metric(nil), r.ordered...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// splitName separates a metric name into its base and an embedded
// Prometheus label set: `a_total{k="v"}` → `a_total`, `k="v"`.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// promValue formats an observation in the histogram's export unit.
func promValue(v int64, unit Unit) string {
	if unit == UnitSeconds {
		return fmt.Sprintf("%g", time.Duration(v).Seconds())
	}
	return fmt.Sprintf("%d", v)
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format. Histograms emit cumulative `_bucket` lines at
// each non-empty bucket boundary plus `+Inf`, with `_sum` and
// `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	helped := make(map[string]bool)
	for _, m := range r.snapshotMetrics() {
		base, labels := splitName(m.name)
		gf := m.gf.Load()
		kind := "counter"
		switch {
		case m.g != nil || m.fg != nil || gf != nil:
			kind = "gauge"
		case m.h != nil:
			kind = "histogram"
		}
		if !helped[base] {
			helped[base] = true
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind); err != nil {
				return err
			}
		}
		var err error
		switch {
		case m.c != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.c.Value())
		case m.g != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.g.Value())
		case m.fg != nil:
			_, err = fmt.Fprintf(w, "%s %g\n", m.name, m.fg.Value())
		case gf != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, (*gf)())
		case m.h != nil:
			err = writePromHistogram(w, base, labels, m.h)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram renders one histogram's bucket/sum/count lines.
func writePromHistogram(w io.Writer, base, labels string, h *Histogram) error {
	buckets, count, sum := h.snapshot()
	return writePromHistogramData(w, base, labels, &buckets, count, sum, h.unit)
}

// writePromHistogramData renders bucket/sum/count lines from a merged
// bucket array — shared between live histograms and federated views.
func writePromHistogramData(w io.Writer, base, labels string, buckets *[histBuckets]int64, count, sum int64, unit Unit) error {
	joint := func(le string) string {
		if labels == "" {
			return fmt.Sprintf(`{le=%q}`, le)
		}
		return fmt.Sprintf(`{%s,le=%q}`, labels, le)
	}
	var cum int64
	for i := range buckets {
		if buckets[i] == 0 {
			continue
		}
		cum += buckets[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, joint(promValue(bucketUpper(i), unit)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, joint("+Inf"), count); err != nil {
		return err
	}
	sumStr := promValue(sum, unit)
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, suffix, sumStr); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, count)
	return err
}
