package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file is the fleet half of the telemetry plane: a wire form for
// registry snapshots that preserves full histogram bucket arrays (so
// merging across nodes is exact, not quantile-of-quantiles), a
// periodic scraper that pulls every live node's snapshot into one
// coordinator-side view, and a cross-node trace stitcher that groups
// per-process trace segments by their shared TraceID.

// FedHistogram is one histogram's federation wire form. It carries
// the sparse bucket array, so two nodes' histograms merge
// bucket-by-bucket with exact counts and any quantile can be resolved
// from the merged state.
type FedHistogram struct {
	Unit    Unit          `json:"unit"`
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Max     int64         `json:"max"`
	Buckets map[int]int64 `json:"buckets,omitempty"`
}

// Merge returns the exact bucket-wise union of two histogram states.
// It is commutative and associative (bucket counts, count, and sum are
// integer additions; max is max), so scrape order cannot change the
// fleet view.
func (h FedHistogram) Merge(other FedHistogram) FedHistogram {
	out := FedHistogram{
		Unit:    h.Unit,
		Count:   h.Count + other.Count,
		Sum:     h.Sum + other.Sum,
		Max:     h.Max,
		Buckets: make(map[int]int64, len(h.Buckets)+len(other.Buckets)),
	}
	if other.Max > out.Max {
		out.Max = other.Max
	}
	if h.Count == 0 {
		out.Unit = other.Unit
	}
	for i, n := range h.Buckets {
		out.Buckets[i] += n
	}
	for i, n := range other.Buckets {
		out.Buckets[i] += n
	}
	return out
}

// dense expands the sparse bucket map into the fixed array the
// quantile machinery works over; out-of-range indices (a corrupt or
// future wire peer) are dropped rather than trusted.
func (h FedHistogram) dense() (buckets [histBuckets]int64) {
	for i, n := range h.Buckets {
		if i >= 0 && i < histBuckets {
			buckets[i] = n
		}
	}
	return buckets
}

// Quantile resolves the q-quantile from the bucket state, with
// Histogram.Quantile's semantics.
func (h FedHistogram) Quantile(q float64) int64 {
	buckets := h.dense()
	return quantileFromBuckets(&buckets, h.Count, h.Max, q)
}

// CountOver returns how many observations exceeded threshold, with
// Histogram.CountOver's bucket-boundary semantics.
func (h FedHistogram) CountOver(threshold int64) int64 {
	buckets := h.dense()
	return countOverFromBuckets(&buckets, h.Count, threshold)
}

// FedSnapshot is a registry snapshot in federation wire form: every
// counter/gauge value, float gauge, and full-bucket histogram, keyed
// by series name. It is what the /metrics.fed debug endpoint serves
// and what the Federator scrapes.
type FedSnapshot struct {
	Values map[string]int64        `json:"values,omitempty"`
	Floats map[string]float64      `json:"floats,omitempty"`
	Hists  map[string]FedHistogram `json:"hists,omitempty"`
}

// Fed converts the snapshot to federation wire form.
func (s *Snapshot) Fed() FedSnapshot {
	out := FedSnapshot{
		Values: make(map[string]int64, len(s.values)),
		Floats: make(map[string]float64, len(s.floats)),
		Hists:  make(map[string]FedHistogram, len(s.hists)),
	}
	for name, v := range s.values {
		out.Values[name] = v
	}
	for name, v := range s.floats {
		out.Floats[name] = v
	}
	for name, h := range s.hists {
		fh := FedHistogram{
			Unit:    h.unit,
			Count:   h.count,
			Sum:     h.sum,
			Max:     h.max,
			Buckets: make(map[int]int64),
		}
		for i, n := range h.buckets {
			if n != 0 {
				fh.Buckets[i] = n
			}
		}
		out.Hists[name] = fh
	}
	return out
}

// FleetSegment is one process-local trace segment attributed to the
// node whose /traces endpoint surfaced it.
type FleetSegment struct {
	Node string `json:"node"`
	TraceSnapshot
}

// FleetTrace is one distributed request reassembled across the fleet:
// every segment sharing a TraceID, root first (the segment with no
// remote parent), then children ordered by start time.
type FleetTrace struct {
	TraceID  string         `json:"traceId"`
	Root     string         `json:"root,omitempty"`
	Start    time.Time      `json:"start"`
	End      time.Time      `json:"end"`
	Segments []FleetSegment `json:"segments"`
}

// StitchTraces groups per-node trace segments into fleet traces by
// TraceID. Segments without a trace ID are dropped (they cannot be
// attributed to a distributed request); traces are returned oldest
// first.
func StitchTraces(byNode map[string][]TraceSnapshot) []FleetTrace {
	grouped := make(map[string]*FleetTrace)
	for node, traces := range byNode {
		for _, tr := range traces {
			if tr.TraceID == "" {
				continue
			}
			ft := grouped[tr.TraceID]
			if ft == nil {
				ft = &FleetTrace{TraceID: tr.TraceID, Start: tr.Start, End: tr.End}
				grouped[tr.TraceID] = ft
			}
			if tr.Start.Before(ft.Start) {
				ft.Start = tr.Start
			}
			if tr.End.After(ft.End) {
				ft.End = tr.End
			}
			ft.Segments = append(ft.Segments, FleetSegment{Node: node, TraceSnapshot: tr})
		}
	}
	out := make([]FleetTrace, 0, len(grouped))
	for _, ft := range grouped {
		sort.SliceStable(ft.Segments, func(i, j int) bool {
			a, b := ft.Segments[i], ft.Segments[j]
			if (a.Parent == "") != (b.Parent == "") {
				return a.Parent == "" // the root segment leads
			}
			return a.TraceSnapshot.Start.Before(b.TraceSnapshot.Start)
		})
		if len(ft.Segments) > 0 && ft.Segments[0].Parent == "" {
			ft.Root = ft.Segments[0].Name
		}
		out = append(out, *ft)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// FederatorConfig wires a Federator.
type FederatorConfig struct {
	// Targets returns the current scrape set: node label → debug base
	// URL ("http://host:port"). It is consulted every cycle, so a
	// membership change (node death, rejoin) changes the scrape set on
	// the next tick. Required.
	Targets func() map[string]string
	// Interval is the scrape cadence (default 2s).
	Interval time.Duration
	// Timeout bounds each target's scrape HTTP round trip (default
	// half the interval).
	Timeout time.Duration
	// Metrics receives the scraper's own health series
	// (fleet_scrape_errors_total{node=…}); nil keeps a private
	// registry.
	Metrics *Registry
	// Logger records scrape failures (nil discards).
	Logger *Logger
}

// fedView is one node's last successful scrape.
type fedView struct {
	snap    FedSnapshot
	scraped time.Time
}

// Federator periodically pulls each target's /metrics.fed snapshot
// and serves the merged fleet view: every node's series re-exported
// under a fleet:: prefix with a node label appended, plus exact
// bucket-merged aggregates across the fleet, plus per-node scrape
// staleness. It is the coordinator-side half of metric federation —
// wire it into the coordinator's debug listener with WithFederator.
type Federator struct {
	cfg    FederatorConfig
	reg    *Registry
	log    *Logger
	client *http.Client

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	mu    sync.Mutex
	views map[string]*fedView
}

// NewFederator builds a federator, performs one synchronous scrape
// (so the fleet view is populated — or provably empty — by the time
// construction returns, and no background scrape races callers who
// drive ScrapeOnce themselves), and starts the interval loop; Close
// stops it.
func NewFederator(cfg FederatorConfig) (*Federator, error) {
	if cfg.Targets == nil {
		return nil, fmt.Errorf("telemetry: federator needs a Targets func")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Timeout <= 0 {
		// Decoupled from the interval: a tight scrape cadence must not
		// imply a tight HTTP deadline — a loaded target (race-instrumented
		// smoke runs, GC pauses) can take far longer to serve one snapshot
		// than the gap between scrapes, and a timed-out scrape loses a
		// whole view. Overlap is harmless; ScrapeOnce is synchronous.
		cfg.Timeout = cfg.Interval / 2
		if cfg.Timeout < 2*time.Second {
			cfg.Timeout = 2 * time.Second
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = NewRegistry()
	}
	f := &Federator{
		cfg:    cfg,
		reg:    reg,
		log:    cfg.Logger,
		client: &http.Client{Timeout: cfg.Timeout},
		stop:   make(chan struct{}),
		views:  make(map[string]*fedView),
	}
	f.ScrapeOnce()
	f.wg.Add(1)
	go f.loop()
	return f, nil
}

// Close stops the scrape loop.
func (f *Federator) Close() error {
	f.once.Do(func() { close(f.stop) })
	f.wg.Wait()
	return nil
}

func (f *Federator) loop() {
	defer f.wg.Done()
	tick := time.NewTicker(f.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
			f.ScrapeOnce()
		}
	}
}

// ScrapeOnce pulls every current target's snapshot synchronously. The
// loop calls it on the interval; tests call it directly for
// deterministic federation state.
func (f *Federator) ScrapeOnce() {
	targets := f.cfg.Targets()
	type result struct {
		node string
		snap FedSnapshot
		err  error
	}
	results := make(chan result, len(targets))
	for node, base := range targets {
		go func(node, base string) {
			snap, err := f.fetchSnapshot(base)
			results <- result{node: node, snap: snap, err: err}
		}(node, base)
	}
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	// Targets that left the fleet (dead nodes) leave the view too: the
	// fleet view reflects current membership, and a rejoining node
	// starts a fresh staleness clock.
	for node := range f.views {
		if _, ok := targets[node]; !ok {
			delete(f.views, node)
		}
	}
	for range targets {
		r := <-results
		if r.err != nil {
			f.reg.Counter(fmt.Sprintf("fleet_scrape_errors_total{node=%q}", r.node),
				"federation scrapes that failed").Inc()
			f.log.Warnf("telemetry: federation scrape of %q failed: %v", r.node, r.err)
			continue
		}
		f.views[r.node] = &fedView{snap: r.snap, scraped: now}
	}
}

func (f *Federator) fetchSnapshot(base string) (FedSnapshot, error) {
	var snap FedSnapshot
	resp, err := f.client.Get(base + "/metrics.fed")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("status %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decode snapshot: %w", err)
	}
	return snap, nil
}

// Nodes returns the node labels with a live federated view, sorted.
func (f *Federator) Nodes() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.views))
	for node := range f.views {
		out = append(out, node)
	}
	sort.Strings(out)
	return out
}

// MergedHistogram returns the exact bucket-merge of one series across
// every node's view (ok=false when no node exports it).
func (f *Federator) MergedHistogram(series string) (FedHistogram, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var merged FedHistogram
	found := false
	for _, v := range f.views {
		if h, ok := v.snap.Hists[series]; ok {
			merged = merged.Merge(h)
			found = true
		}
	}
	return merged, found
}

// SLOSample implements SLOSource over the merged fleet view, so a
// coordinator-side SLO can be evaluated from histograms its nodes
// recorded.
func (f *Federator) SLOSample(series string, threshold int64) (total, bad int64, ok bool) {
	h, ok := f.MergedHistogram(series)
	if !ok {
		return 0, 0, false
	}
	return h.Count, h.CountOver(threshold), true
}

// fedName rewrites a series name into the federated form: the base
// gains the fleet:: prefix, and the node label is appended AFTER any
// embedded labels, so dashboards matching `base{label=` keep matching
// the federated series. Series that already carry a node label (the
// fleet agent's own metrics do) are left as-is rather than gaining a
// second copy.
// hasNodeLabel reports whether a series name already embeds a node
// label. Such series are per-node by construction, so the fleet-wide
// aggregate pass skips them — summing across nodes would just repeat
// the per-node line.
func hasNodeLabel(name string) bool {
	_, labels := splitName(name)
	return strings.Contains(labels, "node=")
}

func fedName(name, node string) string {
	base, labels := splitName(name)
	if node == "" || strings.Contains(labels, "node=") {
		if labels == "" {
			return "fleet::" + base
		}
		return fmt.Sprintf("fleet::%s{%s}", base, labels)
	}
	if labels == "" {
		return fmt.Sprintf("fleet::%s{node=%q}", base, node)
	}
	return fmt.Sprintf("fleet::%s{%s,node=%q}", base, labels, node)
}

// WritePrometheus renders the federated view in Prometheus text form:
// per-node series (node label appended), fleet-wide aggregates
// (counters and gauges summed, histograms exactly bucket-merged), and
// per-node scrape staleness. It is appended to the coordinator's
// /metrics output by the debug listener.
func (f *Federator) WritePrometheus(w io.Writer) error {
	f.mu.Lock()
	nodes := make([]string, 0, len(f.views))
	for node := range f.views {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	views := make(map[string]*fedView, len(f.views))
	for node, v := range f.views {
		views[node] = v
	}
	f.mu.Unlock()

	now := time.Now()
	aggValues := make(map[string]int64)
	aggHists := make(map[string]FedHistogram)
	for _, node := range nodes {
		v := views[node]
		if _, err := fmt.Fprintf(w, "fleet_scrape_age_seconds{node=%q} %g\n",
			node, now.Sub(v.scraped).Seconds()); err != nil {
			return err
		}
		for _, name := range sortedKeys(v.snap.Values) {
			if _, err := fmt.Fprintf(w, "%s %d\n", fedName(name, node), v.snap.Values[name]); err != nil {
				return err
			}
			if !hasNodeLabel(name) {
				aggValues[name] += v.snap.Values[name]
			}
		}
		for _, name := range sortedKeys(v.snap.Floats) {
			if _, err := fmt.Fprintf(w, "%s %g\n", fedName(name, node), v.snap.Floats[name]); err != nil {
				return err
			}
		}
		for _, name := range sortedKeys(v.snap.Hists) {
			h := v.snap.Hists[name]
			if err := writeFedHistogram(w, name, node, h); err != nil {
				return err
			}
			if !hasNodeLabel(name) {
				aggHists[name] = aggHists[name].Merge(h)
			}
		}
	}
	for _, name := range sortedKeys(aggValues) {
		if _, err := fmt.Fprintf(w, "%s %d\n", fedName(name, ""), aggValues[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(aggHists) {
		if err := writeFedHistogram(w, name, "", aggHists[name]); err != nil {
			return err
		}
	}
	return nil
}

// writeFedHistogram renders one federated histogram's
// bucket/sum/count lines under its fleet:: name.
func writeFedHistogram(w io.Writer, name, node string, h FedHistogram) error {
	full := fedName(name, node)
	base, labels := splitName(full)
	buckets := h.dense()
	return writePromHistogramData(w, base, labels, &buckets, h.Count, h.Sum, h.Unit)
}

// sortedKeys returns a map's keys sorted, for deterministic export.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FleetTraces pulls every target's retained traces on demand and
// stitches them into cross-node trees. n bounds how many traces are
// requested per node (0 = the node's full ring); terminal filters by
// terminal status. Scrape failures degrade to missing segments — the
// stitcher works with whatever the live nodes returned.
func (f *Federator) FleetTraces(n int, terminal string) []FleetTrace {
	targets := f.cfg.Targets()
	type result struct {
		node   string
		traces []TraceSnapshot
	}
	results := make(chan result, len(targets))
	for node, base := range targets {
		go func(node, base string) {
			url := base + "/traces"
			sep := "?"
			if n > 0 {
				url += fmt.Sprintf("%sn=%d", sep, n)
				sep = "&"
			}
			if terminal != "" {
				url += sep + "terminal=" + terminal
			}
			var traces []TraceSnapshot
			resp, err := f.client.Get(url)
			if err == nil {
				defer resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					_ = json.NewDecoder(resp.Body).Decode(&traces)
				}
			}
			results <- result{node: node, traces: traces}
		}(node, base)
	}
	byNode := make(map[string][]TraceSnapshot, len(targets))
	for range targets {
		r := <-results
		if len(r.traces) > 0 {
			byNode[r.node] = r.traces
		}
	}
	return StitchTraces(byNode)
}

// StaticTargets adapts a fixed node→URL map into a Targets func, for
// single-shot deployments and tests.
func StaticTargets(targets map[string]string) func() map[string]string {
	fixed := make(map[string]string, len(targets))
	for k, v := range targets {
		fixed[k] = v
	}
	return func() map[string]string { return fixed }
}

// MergeTargets folds several Targets funcs into one, later sources
// winning label collisions — how a coordinator's dynamic node set and
// a static extra (e.g. the vehicle plane) combine into one scrape set.
func MergeTargets(sources ...func() map[string]string) func() map[string]string {
	return func() map[string]string {
		out := make(map[string]string)
		for _, src := range sources {
			if src == nil {
				continue
			}
			for k, v := range src() {
				out[k] = v
			}
		}
		return out
	}
}
