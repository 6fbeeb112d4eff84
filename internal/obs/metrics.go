// Package obs is the campaign telemetry layer: a dependency-light
// metrics registry (counters, gauges, histograms with atomic hot
// paths), hierarchical trace spans written as JSONL through the
// journal's atomic-write helpers, and slog-based structured logging
// helpers. It is the measurement substrate the compaction pipeline
// (internal/run), the distributed fault-simulation fleet
// (internal/dist) and the simulator itself (internal/fault) report
// through, and the thing every future performance claim is measured
// against.
//
// Design rules:
//
//   - The hot path is one atomic add. Metric handles are looked up once
//     (Registry.Counter et al. get-or-create under a lock) and then
//     incremented lock-free; packages on inner loops accumulate locally
//     and publish once per batch.
//   - Everything is nil-safe: a nil *Registry hands out nil handles,
//     and every handle method on a nil receiver is a no-op. Callers
//     wire telemetry unconditionally; "off" costs a predicted branch.
//   - No dependencies beyond the standard library, and no globals: the
//     registry a command creates is the registry its layers report to.
//
// Series names follow the Prometheus data model: a base name plus
// optional labels, written inline as `name{key="value"}`. WritePrometheus
// renders the text exposition format; MarshalSnapshot (and ExpvarFunc)
// render an expvar-compatible JSON snapshot.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// usable; all methods are safe on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a floating-point metric that can go up and down. The zero
// value is usable; all methods are safe on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (CAS loop; gauges are not hot-path metrics).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative buckets with the given
// upper bounds (ascending; +Inf is implicit). Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last = +Inf
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	n      atomic.Uint64
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start, each factor times the previous — the standard latency ladder.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DefLatencyBuckets spans 100µs to ~105s (21 doublings), the range of
// shard and stage latencies in this system.
func DefLatencyBuckets() []float64 { return ExpBuckets(100e-6, 2, 21) }

// DefQueueBuckets spans 10µs to ~40s: admission queue waits and shed
// decisions, which must resolve much faster than the work they gate.
func DefQueueBuckets() []float64 { return ExpBuckets(10e-6, 2, 22) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket ladders here are ~20 entries and the scan is
	// branch-predictable; a binary search is not faster at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Registry holds named metrics. Handles are get-or-create: the first
// call for a series name allocates it, later calls return the same
// handle. A nil *Registry hands out nil handles, so telemetry wiring
// needs no conditionals at the call sites.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter for the series name, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge for the series name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram for the series name, creating it
// with the given bucket bounds on first use (later calls ignore
// bounds). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Uint64, len(h.bounds)+1)
		r.hists[name] = h
	}
	return h
}

// splitSeries separates `base{labels}` into base and the label body
// (without braces); a plain name comes back with empty labels.
func splitSeries(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (sorted, so scrapes and tests are deterministic).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()

	typed := map[string]string{}
	var names []string
	collect := func(m map[string]string) {
		for n := range m {
			names = append(names, n)
		}
	}
	cnames := make(map[string]string, len(r.counters))
	for n := range r.counters {
		cnames[n] = "counter"
	}
	gnames := make(map[string]string, len(r.gauges))
	for n := range r.gauges {
		gnames[n] = "gauge"
	}
	hnames := make(map[string]string, len(r.hists))
	for n := range r.hists {
		hnames[n] = "histogram"
	}
	collect(cnames)
	collect(gnames)
	collect(hnames)
	sort.Strings(names)

	for _, name := range names {
		base, labels := splitSeries(name)
		kind := "counter"
		switch {
		case gnames[name] != "":
			kind = "gauge"
		case hnames[name] != "":
			kind = "histogram"
		}
		if typed[base] == "" {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind); err != nil {
				return err
			}
			typed[base] = kind
		}
		switch kind {
		case "counter":
			if _, err := fmt.Fprintf(w, "%s %d\n", name, r.counters[name].Value()); err != nil {
				return err
			}
		case "gauge":
			if _, err := fmt.Fprintf(w, "%s %g\n", name, r.gauges[name].Value()); err != nil {
				return err
			}
		case "histogram":
			h := r.hists[name]
			cum := uint64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				if _, err := fmt.Fprintf(w, "%s %d\n", bucketSeries(base, labels, fmt.Sprintf("%g", b)), cum); err != nil {
					return err
				}
			}
			cum += h.counts[len(h.bounds)].Load()
			if _, err := fmt.Fprintf(w, "%s %d\n", bucketSeries(base, labels, "+Inf"), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %g\n", series(base+"_sum", labels), h.Sum()); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", series(base+"_count", labels), h.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

func series(base, labels string) string {
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}

func bucketSeries(base, labels, le string) string {
	lab := fmt.Sprintf("le=%q", le)
	if labels != "" {
		lab = labels + "," + lab
	}
	return base + "_bucket{" + lab + "}"
}

// HistogramSnapshot is a histogram's state in a Snapshot.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets map[string]uint64 `json:"buckets"` // upper bound -> cumulative count
}

// Snapshot captures every metric as plain values, the shape
// MarshalSnapshot writes and the expvar integration serves.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot returns a point-in-time copy of every metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Buckets: map[string]uint64{}}
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			hs.Buckets[fmt.Sprintf("%g", b)] = cum
		}
		hs.Buckets["+Inf"] = cum + h.counts[len(h.bounds)].Load()
		s.Histograms[n] = hs
	}
	return s
}

// MarshalSnapshot renders a snapshot as indented JSON, the shape
// `stlcompact -metrics-out` writes.
func MarshalSnapshot(s Snapshot) ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ExpvarFunc adapts the registry to expvar: publish the result under a
// name and /debug/vars includes a live snapshot.
func (r *Registry) ExpvarFunc() expvar.Func {
	return func() any { return r.Snapshot() }
}

var (
	expvarMu        sync.Mutex
	expvarPublished = map[string]bool{}
)

// PublishExpvar publishes the registry's live snapshot under name in
// the process-wide expvar namespace, once; republishing the same name
// (tests, restarted servers in one process) is a no-op instead of the
// expvar.Publish panic.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvarPublished[name] {
		return
	}
	expvarPublished[name] = true
	expvar.Publish(name, r.ExpvarFunc())
}
