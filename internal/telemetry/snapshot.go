package telemetry

import (
	"sort"
	"strings"
	"time"
)

// histSnapshot is one histogram's merged state at snapshot time.
type histSnapshot struct {
	buckets    [histBuckets]int64
	count, sum int64
	max        int64
	unit       Unit
}

// Snapshot is a point-in-time copy of every series in a Registry, with
// typed accessors keyed by metric name. It is the shared substrate for
// the per-package Stats() façades (serve, rsu, fleet): a façade reads
// whatever series it wants by name instead of plumbing a pointer per
// metric, so adding a series to a façade is one getter call, not new
// wiring. All accessors return zero values for unknown names — a
// façade asking for a series nothing has recorded yet reads 0, exactly
// as the live metric would.
type Snapshot struct {
	values map[string]int64
	floats map[string]float64
	hists  map[string]*histSnapshot
}

// Snapshot captures every registered metric's current value: counters,
// gauges, and computed gauges as int64s, histograms with their full
// merged bucket arrays (so any quantile can be resolved later from the
// frozen state).
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		values: make(map[string]int64),
		floats: make(map[string]float64),
		hists:  make(map[string]*histSnapshot),
	}
	for _, m := range r.snapshotMetrics() {
		gf := m.gf.Load()
		switch {
		case m.c != nil:
			s.values[m.name] = m.c.Value()
		case m.g != nil:
			s.values[m.name] = m.g.Value()
		case m.fg != nil:
			s.floats[m.name] = m.fg.Value()
		case gf != nil:
			s.values[m.name] = (*gf)()
		case m.h != nil:
			buckets, count, sum := m.h.snapshot()
			s.hists[m.name] = &histSnapshot{
				buckets: buckets,
				count:   count,
				sum:     sum,
				max:     m.h.Max(),
				unit:    m.h.unit,
			}
		}
	}
	return s
}

// Value returns a counter's or gauge's value (0 for unknown names).
func (s *Snapshot) Value(name string) int64 { return s.values[name] }

// Float returns a float gauge's value (0 for unknown names).
func (s *Snapshot) Float(name string) float64 { return s.floats[name] }

// Int is Value narrowed to int, for façade structs with int fields.
func (s *Snapshot) Int(name string) int { return int(s.values[name]) }

// Total sums every counter/gauge series belonging to the base name:
// Total("fleet_push_errors_total") adds up all
// fleet_push_errors_total{peer=…} series plus the unlabelled series if
// one exists. It is how façades collapse a labelled family into one
// number.
func (s *Snapshot) Total(base string) int64 {
	var total int64
	for name, v := range s.values {
		if b, _ := splitName(name); b == base {
			total += v
		}
	}
	return total
}

// Count returns a histogram's observation count.
func (s *Snapshot) Count(name string) int64 {
	if h := s.hists[name]; h != nil {
		return h.count
	}
	return 0
}

// Sum returns a histogram's raw observation sum.
func (s *Snapshot) Sum(name string) int64 {
	if h := s.hists[name]; h != nil {
		return h.sum
	}
	return 0
}

// SumDuration returns Sum as a time.Duration; meaningful for
// UnitSeconds histograms, whose observations are nanoseconds.
func (s *Snapshot) SumDuration(name string) time.Duration {
	return time.Duration(s.Sum(name))
}

// Max returns a histogram's largest observation.
func (s *Snapshot) Max(name string) int64 {
	if h := s.hists[name]; h != nil {
		return h.max
	}
	return 0
}

// Quantile resolves the q-quantile from the frozen bucket state, with
// the same semantics as Histogram.Quantile (bucket-upper-bound
// overestimate, exact at the maximum, 0 when empty or unknown).
func (s *Snapshot) Quantile(name string, q float64) int64 {
	h := s.hists[name]
	if h == nil {
		return 0
	}
	return quantileFromBuckets(&h.buckets, h.count, h.max, q)
}

// QuantileDuration returns Quantile as a time.Duration; meaningful for
// UnitSeconds histograms.
func (s *Snapshot) QuantileDuration(name string, q float64) time.Duration {
	return time.Duration(s.Quantile(name, q))
}

// CountOver returns how many of a histogram's observations exceeded
// threshold, with Histogram.CountOver's bucket-boundary semantics
// (0 for unknown names).
func (s *Snapshot) CountOver(name string, threshold int64) int64 {
	h := s.hists[name]
	if h == nil {
		return 0
	}
	return countOverFromBuckets(&h.buckets, h.count, threshold)
}

// Has reports whether any series was captured under name.
func (s *Snapshot) Has(name string) bool {
	if _, ok := s.values[name]; ok {
		return true
	}
	if _, ok := s.floats[name]; ok {
		return true
	}
	_, ok := s.hists[name]
	return ok
}

// Names returns every captured series name containing substr (all
// names for ""), sorted — a debugging aid for façade authors.
func (s *Snapshot) Names(substr string) []string {
	var out []string
	for name := range s.values {
		if strings.Contains(name, substr) {
			out = append(out, name)
		}
	}
	for name := range s.floats {
		if strings.Contains(name, substr) {
			out = append(out, name)
		}
	}
	for name := range s.hists {
		if strings.Contains(name, substr) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
