package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"safecross/internal/dataset"
	"safecross/internal/rsu"
	"safecross/internal/safecross"
	"safecross/internal/sim"
	"safecross/internal/video"
)

// ledger is the finished pass's record of every frame, cut to the
// measured window [w0, w1) by due time.
type ledger struct {
	p      *pass
	recs   [][]frameRec // per feed, index n-1
	w0, w1 int64
}

func newLedger(p *pass) *ledger {
	l := &ledger{p: p, w0: p.w0.at, w1: p.w1.at}
	for _, f := range p.feeds {
		l.recs = append(l.recs, f.snapshot())
	}
	return l
}

// inWindow reports whether r was sent with its due time inside the
// measured window: the frames a run is scored on.
func (l *ledger) inWindow(r *frameRec) bool {
	return r.sent && r.due >= l.w0 && r.due < l.w1
}

// scored calls fn for every frame in the measured window.
func (l *ledger) scored(fn func(feed, n int, r *frameRec)) {
	for fi, recs := range l.recs {
		for i := range recs {
			if r := &recs[i]; l.inWindow(r) {
				fn(fi, i+1, r)
			}
		}
	}
}

// counts is the pass's operation ledger: failed = shed + lost +
// unrecovered, over offered + moved.
type counts struct {
	Offered     int `json:"frames_offered"`
	Received    int `json:"advisories_received"`
	Shed        int `json:"shed"`
	Lost        int `json:"lost"`
	Moved       int `json:"moved_intersections"`
	Unrecovered int `json:"unrecovered_intersections"`
}

func (c counts) attempted() int { return c.Offered + c.Moved }
func (c counts) failed() int    { return c.Shed + c.Lost + c.Unrecovered }

func (l *ledger) counts() counts {
	var c counts
	for _, recs := range l.recs {
		lo, hi := -1, -1
		for i := range recs {
			if l.inWindow(&recs[i]) {
				if lo < 0 {
					lo = i
				}
				hi = i
			}
		}
		if lo < 0 {
			continue
		}
		// A hole between two scored frames was owed and never processed.
		for i := lo; i <= hi; i++ {
			c.Offered++
			r := &recs[i]
			switch {
			case !r.received:
				c.Lost++
			case r.shed:
				c.Received++
				c.Shed++
			default:
				c.Received++
			}
		}
	}
	c.Moved = len(l.p.moved)
	for _, k := range l.p.moved {
		if l.p.feeds[k-1].firstReady[l.p.survivor()] == 0 {
			c.Unrecovered++
		}
	}
	return c
}

// series collects (timestamp, value) samples for segmentMedian.
type series struct{ at, val []float64 }

func (s *series) add(at int64, v float64) {
	s.at = append(s.at, float64(at))
	s.val = append(s.val, v)
}

func (l *ledger) segmented(s *series, pick func([]float64) float64) (float64, int) {
	return segmentMedian(s.at, s.val, float64(l.w0), float64(l.w1), pick)
}

// tail is the segment-median p99 of s — or the highest percentile the
// smallest segment supports, on short windows.
func (l *ledger) tail(s *series) float64 {
	_, n := l.segmented(s, pickQ(0.5))
	v, _ := l.segmented(s, pickQ(supportedQuantile(n, 0.99)))
	return v
}

func pickQ(q float64) func([]float64) float64 {
	return func(sorted []float64) float64 { return quantile(sorted, q) }
}

const msPerNs = 1e-6

// latency returns the frame-to-advisory samples: due → receipt, in ms,
// stamped with the due time (open-loop latency counts from when the
// frame was owed, not from when the runner got round to it).
func (l *ledger) latency() *series {
	var s series
	l.scored(func(_, _ int, r *frameRec) {
		if r.received {
			s.add(r.due, float64(r.recv-r.due)*msPerNs)
		}
	})
	return &s
}

// lateness returns due → ProcessFrameContext entry, in ms.
func (l *ledger) lateness() *series {
	var s series
	l.scored(func(_, _ int, r *frameRec) { s.add(r.due, float64(r.call-r.due)*msPerNs) })
	return &s
}

// broadcastEnd is when Broadcast returned, clamped to the receipt: the
// vehicle can read the advisory before Broadcast returns, and the spans
// must still tile.
func (r *frameRec) broadcastEnd() int64 {
	if r.bcastEnd == 0 || r.bcastEnd > r.recv {
		return r.recv
	}
	return r.bcastEnd
}

// report is what one command invocation prints.
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Traced   bool               `json:"traced"`
	Metrics  map[string]float64 `json:"-"`
	Counts   counts             `json:"counts"`
	// TailQuantile is the percentile reported as p99: 0.99 when every
	// segment has ten samples beyond it, lower on short smoke windows.
	// SamplesPerSegment is the smallest segment. Quantiles are further
	// segment-median latency percentiles (ms) and LiveHeapMB the heap
	// after a forced collection at the window's end, for the reader:
	// they repeat too poorly on this box to carry a bound.
	TailQuantile      float64            `json:"tail_quantile,omitempty"`
	SamplesPerSegment int                `json:"samples_per_segment,omitempty"`
	Quantiles         map[string]float64 `json:"latency_quantiles_ms,omitempty"`
	LiveHeapMB        float64            `json:"live_heap_mb"`
	MaxBatch          int                `json:"serve_max_batch"`
	LateP50Ms         float64            `json:"loadgen_late_p50_ms"`
	LateP99Ms         float64            `json:"loadgen_late_p99_ms"`
	MaxInFlight       int                `json:"max_in_flight_per_feed"`
	UnearnedTurns     int                `json:"unearned_turns"`
	// Strays counts ledger mismatches that should never happen: owed
	// frames the pacer could not queue, receipts for frames never sent
	// or already received.
	Strays int `json:"strays"`
	// TraceCoverage is the smallest share of a frame span its four child
	// spans cover, over the traced window.
	TraceCoverage float64  `json:"trace_coverage_min,omitempty"`
	InputHash     string   `json:"input_hash"`
	Gates         []string `json:"gate_violations"`
}

// endToEndMetrics computes the end-to-end metrics of an untraced
// pass; setupS is the env build plus the topology bring-up.
func (l *ledger) endToEndMetrics(rep *report, setupS float64) {
	p := l.p
	m := rep.Metrics
	lat := l.latency()
	var n int
	m["frame_to_advisory_p50_ms"], n = l.segmented(lat, pickQ(0.5))
	rep.SamplesPerSegment = n
	rep.TailQuantile = supportedQuantile(n, 0.99)
	rep.Quantiles = map[string]float64{}
	for name, q := range map[string]float64{"p90": 0.90, "p95": 0.95, "p99": rep.TailQuantile} {
		rep.Quantiles[name], _ = l.segmented(lat, pickQ(q))
	}

	received := l.receipts()
	m["frames_per_s"], _ = l.segmented(received, func(sorted []float64) float64 {
		if len(sorted) < 2 {
			return 0
		}
		return float64(len(sorted)-1) / ((sorted[len(sorted)-1] - sorted[0]) / 1e9)
	})
	frames := float64(len(received.at))
	if frames > 0 {
		m["allocs_per_frame"] = float64(p.w1.mem.Mallocs-p.w0.mem.Mallocs) / frames
		m["alloc_kb_per_frame"] = float64(p.w1.mem.TotalAlloc-p.w0.mem.TotalAlloc) / 1024 / frames
	}
	m["switch_budget_p99_ratio"] = p.switchP99()
	m["failover_gap_p50_ms"] = l.failoverGap()
	m["setup_s"] = setupS
}

// receipts returns the receipt instants inside the window.
func (l *ledger) receipts() *series {
	var s series
	for _, recs := range l.recs {
		for i := range recs {
			if r := &recs[i]; r.received && r.recv >= l.w0 && r.recv < l.w1 {
				s.add(r.recv, float64(r.recv))
			}
		}
	}
	return &s
}

// failoverGap is crash → first Ready advisory from the survivor,
// median over the moved intersections that recovered.
func (l *ledger) failoverGap() float64 {
	var gaps []float64
	for _, k := range l.p.moved {
		if at := l.p.feeds[k-1].firstReady[l.p.survivor()]; at > 0 {
			gaps = append(gaps, float64(at-l.p.crashAt)*msPerNs)
		}
	}
	return median(gaps)
}

// references picks the lowest-numbered intersection of each node under
// the assignment the window ran with.
func (l *ledger) references() []int {
	lowest := map[string]int{}
	for k, owner := range l.p.owners {
		if cur, ok := lowest[owner]; !ok || k < cur {
			lowest[owner] = k
		}
	}
	var out []int
	for _, k := range lowest {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// verdict is what a vehicle acts on.
type verdict struct {
	ready, safe bool
	scene       sim.Weather
}

// replayReference runs frames 1..upTo of src, in order, through a local
// safecross.NewDefault framework on clones of the env's weights — the
// untimed single-process answer the fleet's advisories are held to.
func replayReference(e *env, src source, upTo int) ([]verdict, error) {
	models := make(map[sim.Weather]video.Classifier, len(e.tm.Models))
	for scene, m := range e.tm.Models {
		clone, err := video.CloneWeights(e.tm.Builder, m)
		if err != nil {
			return nil, err
		}
		models[scene] = clone
	}
	fw, err := safecross.NewDefault(safecross.Config{ClipLen: e.clipLen, SafeStreak: safeStreak}, models)
	if err != nil {
		return nil, err
	}
	out := make([]verdict, upTo)
	for n := 1; n <= upTo; n++ {
		frame, _ := src.at(n)
		d, err := fw.ProcessFrame(frame)
		if err != nil {
			return nil, fmt.Errorf("reference replay frame %d: %w", n, err)
		}
		out[n-1] = verdict{ready: d.Ready, safe: d.Ready && d.Safe, scene: d.Scene}
	}
	return out, nil
}

// referenceVerdicts replays intersection k from its first frame to its
// limit-th scored frame. The result is indexed like the ledger (n-1).
func (l *ledger) referenceVerdicts(k, limit int) ([]verdict, error) {
	recs := l.recs[k-1]
	upTo, scored := 0, 0
	for i := range recs {
		if l.inWindow(&recs[i]) {
			upTo = i + 1
			if scored++; scored == limit {
				break
			}
		}
	}
	for i := range recs[:upTo] {
		if !recs[i].sent {
			return nil, fmt.Errorf("intersection %d skipped frame %d before the end of its scored frames", k, i+1)
		}
	}
	return replayReference(l.p.env, l.p.feeds[k-1].src, upTo)
}

// verify is the untimed correctness pass. agreement is the share of the
// reference intersections' first agreeFrames scored frames whose
// received (Ready, Safe, Scene) equals the reference's; unearned counts
// received TURN advisories that lacked their evidence, by either test:
// the reference did not say TURN for that frame, or (on every
// intersection, every frame) the labels the framework was handed did
// not end in safeStreak consecutive safe verdicts.
func (l *ledger) verify() (agreement float64, unearned int, err error) {
	refs := l.references()
	results := make([][]verdict, len(refs))
	errs := make([]error, len(refs))
	var wg sync.WaitGroup
	for i, k := range refs {
		wg.Add(1)
		go func(i, k int) {
			defer wg.Done()
			results[i], errs[i] = l.referenceVerdicts(k, agreeFrames)
		}(i, k)
	}
	wg.Wait()
	compared, agreed := 0, 0
	for i, k := range refs {
		if errs[i] != nil {
			return 0, 0, errs[i]
		}
		recs := l.recs[k-1]
		for j, want := range results[i] {
			r := &recs[j]
			if !l.inWindow(r) {
				continue
			}
			compared++
			got := verdict{ready: r.ready, safe: r.ready && r.safe, scene: r.scene}
			if r.received && got == want {
				agreed++
			}
			if r.received && got.safe && !want.safe {
				unearned++
			}
		}
	}
	if compared > 0 {
		agreement = float64(agreed) / float64(compared)
	}

	for _, recs := range l.recs {
		streak, node := 0, int8(-1)
		for i := range recs {
			r := &recs[i]
			if !r.sent { // a hole: whoever continues starts a fresh framework
				streak, node = 0, -1
				continue
			}
			if r.node != node { // a new owner, a fresh framework
				streak, node = 0, r.node
			}
			if r.label == dataset.ClassSafe {
				streak++
			} else {
				streak = 0
			}
			if r.received && r.ready && r.safe && streak < safeStreak {
				unearned++
			}
		}
	}
	return agreement, unearned, nil
}

// gates is the command's correctness gate.
func (rep *report) gates(wl workload, agreement float64, failure error) {
	add := func(format string, args ...any) { rep.Gates = append(rep.Gates, fmt.Sprintf(format, args...)) }
	if failure != nil {
		add("program error: %v", failure)
	}
	if agreement < 1-0.005 {
		add("verdict_agreement %.4f under 0.995", agreement)
	}
	if !wl.closed && rep.Counts.Lost > 0 {
		add("%d advisories lost on an open-loop workload", rep.Counts.Lost)
	}
	if rep.UnearnedTurns > 0 {
		add("%d TURN advisories without %d consecutive safe verdicts behind them", rep.UnearnedTurns, safeStreak)
	}
	// A closed loop has no schedule to be late against: there the wait
	// between credit and call is the program's own queueing.
	if !wl.closed && rep.LateP50Ms > float64(lateGate)*msPerNs {
		add("loadgen.late p50 %.3f ms over %.1f: the generator, not the program, was the bottleneck", rep.LateP50Ms, float64(lateGate)*msPerNs)
	}
	if rep.Counts.Unrecovered > 0 {
		add("%d moved intersections never recovered within %v", rep.Counts.Unrecovered, recoveryCap)
	}
	if rep.Strays > 0 {
		add("%d frames or receipts the ledger could not place", rep.Strays)
	}
	if wl.closed && rep.MaxInFlight > 1 {
		add("closed loop had %d frames of one feed in flight", rep.MaxInFlight)
	}
}

// specs lists the metrics this kind of run reports.
func (rep *report) specs() []metricSpec {
	if rep.Traced {
		return perLayer
	}
	return endToEnd
}

// line renders the contract's result line.
func (rep *report) line() (string, error) {
	specs := rep.specs()
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(rep.Gates) == 0,
		Attempted: rep.Counts.attempted(),
		Failed:    rep.Counts.failed(),
		Metrics:   make(map[string]value, len(specs)),
	}
	for _, s := range specs {
		v, ok := rep.Metrics[s.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", s.Name)
		}
		out.Metrics[s.Name] = value{Value: v, Unit: s.Unit}
	}
	raw, err := json.Marshal(out)
	return string(raw), err
}

// advisoryBytes is the mean wire size of the scored advisories:
// json.Marshal of the same rsu.Message the runner broadcast, plus the
// encoder's newline.
func (l *ledger) advisoryBytes() float64 {
	total, n := 0, 0
	l.scored(func(fi, fn int, r *frameRec) {
		if !r.received || n >= 2000 {
			return
		}
		msg := rsu.IntersectionAdvisory(fi+1, fn, &safecross.Decision{Ready: r.ready, Safe: r.safe, Scene: r.scene})
		if raw, err := json.Marshal(msg); err == nil {
			total += len(raw) + 1
			n++
		}
	})
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}
