package obs

import (
	"fmt"
	"html"
	"io"
	"sort"
	"strings"
	"time"
)

// ProcessTrace is one process's JSONL trace file, tagged with the
// process name (stltrace derives it from the filename).
type ProcessTrace struct {
	Proc   string
	Events []Event
}

// mergedSpan is one event in the merged, skew-corrected campaign tree.
type mergedSpan struct {
	ev       Event
	proc     string
	parent   *mergedSpan
	children []*mergedSpan
}

func (m *mergedSpan) start() int64 { return m.ev.StartN }
func (m *mergedSpan) end() int64   { return m.ev.StartN + m.ev.DurN }

// MergedTrace is the fleet-wide view of one or more campaigns: every
// process's spans on one corrected clock, linked into a single tree
// through the (globally unique, random) span IDs.
type MergedTrace struct {
	// Skew is the clock correction applied to each process's
	// timestamps, estimated from RPC parent/child span pairs. The
	// reference process (offset 0) is the one holding the root span.
	Skew map[string]time.Duration
	// SkewInconsistent names process pairs whose RPC constraint
	// intervals were empty — the midpoint was used, but the clocks
	// moved during the trace or the RPC timestamps are unreliable.
	SkewInconsistent []string

	spans []*mergedSpan
	byID  map[uint64]*mergedSpan
	roots []*mergedSpan
}

// MergeTraces merges per-process trace files into one corrected
// timeline: it estimates per-process clock skew from cross-process
// parent/child (RPC send/recv) span pairs, shifts every process onto
// the reference clock, links spans into trees, and clamps children
// into their parents so residual skew cannot make a shard appear to
// run outside its campaign.
func MergeTraces(procs []ProcessTrace) (*MergedTrace, error) {
	m := &MergedTrace{Skew: map[string]time.Duration{}, byID: map[uint64]*mergedSpan{}}
	for _, p := range procs {
		for _, ev := range p.Events {
			if ev.ID == 0 {
				continue
			}
			if prev, dup := m.byID[ev.ID]; dup {
				return nil, fmt.Errorf("obs: span id %#x appears in both %s and %s — cannot merge (pre-random-ID trace files?)",
					ev.ID, prev.proc, p.Proc)
			}
			ms := &mergedSpan{ev: ev, proc: p.Proc}
			m.byID[ev.ID] = ms
			m.spans = append(m.spans, ms)
		}
	}

	m.estimateSkew(procs)

	// Apply offsets, link the tree, clamp children into parents.
	for _, s := range m.spans {
		s.ev.StartN += int64(m.Skew[s.proc])
	}
	for _, s := range m.spans {
		if s.ev.Parent != 0 {
			if p := m.byID[s.ev.Parent]; p != nil && p != s {
				s.parent = p
				p.children = append(p.children, s)
				continue
			}
		}
		m.roots = append(m.roots, s)
	}
	for _, s := range m.spans {
		sort.Slice(s.children, func(i, j int) bool { return s.children[i].start() < s.children[j].start() })
	}
	sort.Slice(m.roots, func(i, j int) bool { return m.roots[i].start() < m.roots[j].start() })
	for _, r := range m.roots {
		clampChildren(r)
	}
	return m, nil
}

// clampChildren forces every descendant interval inside its parent —
// the invariant skew correction aims for and clamping guarantees.
func clampChildren(p *mergedSpan) {
	for _, c := range p.children {
		if c.start() < p.start() {
			c.ev.StartN = p.start()
		}
		if c.start() > p.end() {
			c.ev.StartN = p.end()
		}
		if c.end() > p.end() {
			c.ev.DurN = p.end() - c.ev.StartN
		}
		if c.ev.DurN < 0 {
			c.ev.DurN = 0
		}
		clampChildren(c)
	}
}

// estimateSkew derives one clock offset per process from the RPC
// edges: a child span recorded in process B whose parent lives in
// process A is a request the parent issued and the child served, so on
// one clock the child nests inside the parent. Each such pair bounds
// the relative offset δ = off(B)−off(A) to [pStart−cStart, pEnd−cEnd];
// intersecting the bounds over all pairs and taking the midpoint is
// the classic NTP-style estimate. Offsets then propagate from the
// reference process across the pair graph.
func (m *MergedTrace) estimateSkew(procs []ProcessTrace) {
	type bound struct{ lo, hi int64 }
	pair := map[[2]string]*bound{}
	for _, s := range m.spans {
		if s.ev.Parent == 0 {
			continue
		}
		p := m.byID[s.ev.Parent]
		if p == nil || p.proc == s.proc {
			continue
		}
		lo, hi := p.start()-s.start(), p.end()-s.end()
		if hi < lo {
			// Child longer than parent (drain races); keep the
			// interval well-formed around the midpoint.
			lo, hi = hi, lo
		}
		key := [2]string{p.proc, s.proc}
		b := pair[key]
		if b == nil {
			pair[key] = &bound{lo, hi}
			continue
		}
		inconsistent := lo > b.hi || hi < b.lo
		if lo > b.lo {
			b.lo = lo
		}
		if hi < b.hi {
			b.hi = hi
		}
		if inconsistent || b.lo > b.hi {
			mid := (b.lo + b.hi) / 2
			b.lo, b.hi = mid, mid
			name := key[0] + "↔" + key[1]
			if !contains(m.SkewInconsistent, name) {
				m.SkewInconsistent = append(m.SkewInconsistent, name)
			}
		}
	}

	// Reference process: the one holding the earliest root campaign
	// span; fall back to the first file.
	ref := ""
	var refStart int64
	for _, s := range m.spans {
		if s.ev.Kind != KindCampaign {
			continue
		}
		if parent := m.byID[s.ev.Parent]; s.ev.Parent != 0 && parent != nil {
			continue
		}
		if ref == "" || s.start() < refStart {
			ref, refStart = s.proc, s.start()
		}
	}
	if ref == "" && len(procs) > 0 {
		ref = procs[0].Proc
	}

	// BFS the pair graph from the reference.
	adj := map[string]map[string]int64{}
	for key, b := range pair {
		mid := (b.lo + b.hi) / 2
		if adj[key[0]] == nil {
			adj[key[0]] = map[string]int64{}
		}
		if adj[key[1]] == nil {
			adj[key[1]] = map[string]int64{}
		}
		adj[key[0]][key[1]] = mid  // off(B) = off(A) + mid
		adj[key[1]][key[0]] = -mid // and back
	}
	m.Skew[ref] = 0
	queue := []string{ref}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		var next []string
		for b := range adj[a] {
			next = append(next, b)
		}
		sort.Strings(next)
		for _, b := range next {
			if _, done := m.Skew[b]; done {
				continue
			}
			m.Skew[b] = m.Skew[a] + time.Duration(adj[a][b])
			queue = append(queue, b)
		}
	}
	// Disconnected processes (no RPC edges) stay uncorrected.
	for _, p := range procs {
		if _, ok := m.Skew[p.Proc]; !ok {
			m.Skew[p.Proc] = 0
		}
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// Events returns the merged, corrected events sorted by start time,
// each annotated with attrs["proc"].
func (m *MergedTrace) Events() []Event {
	out := make([]Event, 0, len(m.spans))
	for _, s := range m.spans {
		ev := s.ev
		attrs := make(map[string]string, len(ev.Attrs)+1)
		for k, v := range ev.Attrs {
			attrs[k] = v
		}
		attrs["proc"] = s.proc
		ev.Attrs = attrs
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartN < out[j].StartN })
	return out
}

// TraceIDs returns the distinct trace IDs present, largest span count
// first — the first entry is the campaign stltrace renders by default.
func (m *MergedTrace) TraceIDs() []string {
	count := map[string]int{}
	for _, s := range m.spans {
		if s.ev.Trace != "" {
			count[s.ev.Trace]++
		}
	}
	out := make([]string, 0, len(count))
	for id := range count {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if count[out[i]] != count[out[j]] {
			return count[out[i]] > count[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// TraceListing is one trace's row in `stltrace -list`: the trace ID,
// its root span's wall time, and the root's tenant and cache
// annotations (empty when the root carries none, as in stlcompact
// traces). It answers "which trace was the slow campaign" and "what did
// tenant X run" without a metrics series per tenant.
type TraceListing struct {
	ID     string
	Wall   time.Duration
	Tenant string
	Cache  string
}

// String renders the row as `stltrace -list` prints it.
func (l TraceListing) String() string {
	s := fmt.Sprintf("%s  %12v", l.ID, l.Wall)
	if l.Tenant != "" {
		s += "  tenant=" + l.Tenant
	}
	if l.Cache != "" {
		s += "  cache=" + l.Cache
	}
	return s
}

// List returns one row per trace ID, slowest root first (ties by ID).
func (m *MergedTrace) List() []TraceListing {
	best := map[string]*mergedSpan{}
	for _, r := range m.roots {
		if r.ev.Trace != "" && betterRoot(best[r.ev.Trace], r) {
			best[r.ev.Trace] = r
		}
	}
	out := make([]TraceListing, 0, len(best))
	for id, r := range best {
		out = append(out, TraceListing{ID: id, Wall: time.Duration(r.ev.DurN),
			Tenant: r.ev.Attrs["tenant"], Cache: r.ev.Attrs["cache"]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall > out[j].Wall
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// rootFor picks the campaign tree to analyze: the root span of the
// given trace (longest campaign-kind root, else longest root). Empty
// traceID means "any".
func (m *MergedTrace) rootFor(traceID string) *mergedSpan {
	var best *mergedSpan
	for _, r := range m.roots {
		if traceID != "" && r.ev.Trace != traceID {
			continue
		}
		if betterRoot(best, r) {
			best = r
		}
	}
	return best
}

// betterRoot reports whether s beats the current best root: a
// campaign-kind root beats any other kind, then the longer one wins.
func betterRoot(best, s *mergedSpan) bool {
	if best == nil {
		return true
	}
	bi, si := best.ev.Kind == KindCampaign, s.ev.Kind == KindCampaign
	if bi != si {
		return si
	}
	return s.ev.DurN > best.ev.DurN
}

// The critical-path categories: where one campaign's wall-clock went.
const (
	CatQueue     = "queue-wait"
	CatTransport = "transport"
	CatSimulate  = "simulate"
	CatVerify    = "verify"
	CatJournal   = "journal"
	CatOther     = "orchestration"
)

// SpanCategory maps a span to its critical-path category. Self-time
// attribution (categorize below) means a client-side shard span's time
// not covered by its worker-side child is transport — wire, queueing
// at the worker, serialization — while the worker child itself is
// simulate (or verify for verification re-executions).
func SpanCategory(ev Event) string {
	switch {
	case ev.Name == "queue-wait":
		return CatQueue
	case ev.Kind == KindShard && ev.Attrs["side"] == "client":
		if ev.Attrs["verify"] == "true" {
			return CatVerify
		}
		return CatTransport
	case ev.Kind == KindShard:
		if ev.Attrs["verify"] == "true" {
			return CatVerify
		}
		return CatSimulate
	case ev.Kind == KindStage && (ev.Name == "faultsim" || ev.Name == "evaluate"):
		return CatSimulate
	case ev.Kind == KindStage && ev.Name == "checkpoint":
		return CatJournal
	case ev.Kind == KindStage:
		return "stage:" + ev.Name
	default:
		return CatOther
	}
}

// CategoryDur is one critical-path bucket.
type CategoryDur struct {
	Category string
	Dur      time.Duration
}

// CriticalPathSummary decomposes one campaign's wall-clock into
// categories by self-time: each instant of the root span is attributed
// to the deepest span covering it, so the categories tile the wall
// exactly — Total == Wall by construction, whatever the fan-out.
type CriticalPathSummary struct {
	TraceID    string
	Root       Event
	Wall       time.Duration
	Total      time.Duration
	Categories []CategoryDur
}

// CriticalPath computes the wall-clock decomposition for one campaign
// (empty traceID = the dominant one). Returns nil when the merge holds
// no matching root span.
func (m *MergedTrace) CriticalPath(traceID string) *CriticalPathSummary {
	root := m.rootFor(traceID)
	if root == nil {
		return nil
	}
	acc := map[string]time.Duration{}
	attributeSelfTime(root, root.start(), root.end(), acc)
	sum := &CriticalPathSummary{
		TraceID: root.ev.Trace, Root: root.ev,
		Wall: time.Duration(root.ev.DurN),
	}
	for cat, d := range acc {
		sum.Categories = append(sum.Categories, CategoryDur{cat, d})
		sum.Total += d
	}
	sort.Slice(sum.Categories, func(i, j int) bool {
		if sum.Categories[i].Dur != sum.Categories[j].Dur {
			return sum.Categories[i].Dur > sum.Categories[j].Dur
		}
		return sum.Categories[i].Category < sum.Categories[j].Category
	})
	return sum
}

// attributeSelfTime decomposes the window [lo, hi] of span s: each
// instant goes to the deepest span covering it, so the categories tile
// the window exactly whatever the tree shape. Concurrent siblings
// (parallel shard dispatches) overlap on the wall axis; the overlap is
// credited to the earliest-starting sibling — the decomposition answers
// "where did the wall-clock go", not "how much work ran" (that is what
// the histograms are for). Children are sorted by start and clamped
// inside the parent (MergeTraces guarantees both).
func attributeSelfTime(s *mergedSpan, lo, hi int64, acc map[string]time.Duration) {
	cat := SpanCategory(s.ev)
	cursor := lo
	for _, c := range s.children {
		cs, ce := c.start(), c.end()
		if cs < cursor {
			cs = cursor
		}
		if ce > hi {
			ce = hi
		}
		if ce <= cs {
			continue
		}
		if cs > cursor {
			acc[cat] += time.Duration(cs - cursor)
		}
		attributeSelfTime(c, cs, ce, acc)
		cursor = ce
	}
	if hi > cursor {
		acc[cat] += time.Duration(hi - cursor)
	}
}

// RenderWaterfall writes the TTY waterfall for one campaign: a
// depth-indented tree, one row per span, with a proportional bar on a
// shared time axis and the process name on every row.
func (m *MergedTrace) RenderWaterfall(w io.Writer, traceID string, width int) {
	root := m.rootFor(traceID)
	if root == nil {
		fmt.Fprintln(w, "no spans to render")
		return
	}
	if width < 20 {
		width = 60
	}
	t0, t1 := root.start(), root.end()
	if t1 <= t0 {
		t1 = t0 + 1
	}
	fmt.Fprintf(w, "trace %s  wall %v  reference clock: offsets applied per process\n",
		root.ev.Trace, time.Duration(root.ev.DurN).Round(time.Microsecond))
	var walk func(s *mergedSpan, depth int)
	walk = func(s *mergedSpan, depth int) {
		span := float64(t1 - t0)
		lo := int(float64(s.start()-t0) / span * float64(width))
		hi := int(float64(s.end()-t0) / span * float64(width))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		bar := strings.Repeat(" ", lo) + strings.Repeat("█", hi-lo) + strings.Repeat(" ", width-hi)
		label := strings.Repeat("  ", depth) + s.ev.Name
		if len(label) > 28 {
			label = label[:28]
		}
		fmt.Fprintf(w, "%-28s %-10s |%s| %9s\n", label, trunc(s.proc, 10), bar,
			time.Duration(s.ev.DurN).Round(time.Microsecond))
		for _, c := range s.children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
}

func trunc(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

var flameColors = map[string]string{
	CatQueue:     "#d4a017",
	CatTransport: "#4a90d9",
	CatSimulate:  "#5cb85c",
	CatVerify:    "#9b59b6",
	CatJournal:   "#e67e22",
	CatOther:     "#95a5a6",
}

// RenderHTML writes a static, dependency-free HTML flame view of one
// campaign: absolutely positioned divs on a shared time axis, one row
// per tree depth, colored by critical-path category, span details in
// the title tooltip.
func (m *MergedTrace) RenderHTML(w io.Writer, traceID string) error {
	root := m.rootFor(traceID)
	if root == nil {
		_, err := io.WriteString(w, "<!doctype html><title>gpustl trace</title><p>no spans</p>")
		return err
	}
	t0, t1 := root.start(), root.end()
	if t1 <= t0 {
		t1 = t0 + 1
	}
	span := float64(t1 - t0)
	fmt.Fprintf(w, `<!doctype html><meta charset="utf-8"><title>gpustl trace %s</title>
<style>
body{font:12px monospace;margin:16px}
.lane{position:relative;height:22px;margin-bottom:2px}
.sp{position:absolute;height:20px;overflow:hidden;white-space:nowrap;border-radius:3px;
    color:#fff;padding:2px 3px;box-sizing:border-box;font-size:11px}
.legend span{display:inline-block;padding:2px 8px;margin-right:6px;border-radius:3px;color:#fff}
</style>
<h1>trace %s</h1><p>wall %v — skew-corrected fleet view</p><div class="legend">`,
		html.EscapeString(root.ev.Trace), html.EscapeString(root.ev.Trace),
		time.Duration(root.ev.DurN).Round(time.Microsecond))
	for _, cat := range []string{CatQueue, CatTransport, CatSimulate, CatVerify, CatJournal, CatOther} {
		fmt.Fprintf(w, `<span style="background:%s">%s</span>`, flameColors[cat], cat)
	}
	fmt.Fprint(w, "</div>\n")

	// Collect spans per depth, then emit one lane per depth.
	lanes := map[int][]*mergedSpan{}
	maxDepth := 0
	var walk func(s *mergedSpan, depth int)
	walk = func(s *mergedSpan, depth int) {
		lanes[depth] = append(lanes[depth], s)
		if depth > maxDepth {
			maxDepth = depth
		}
		for _, c := range s.children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	for d := 0; d <= maxDepth; d++ {
		fmt.Fprint(w, `<div class="lane">`)
		for _, s := range lanes[d] {
			left := float64(s.start()-t0) / span * 100
			width := float64(s.ev.DurN) / span * 100
			if width < 0.05 {
				width = 0.05
			}
			cat := SpanCategory(s.ev)
			color := flameColors[cat]
			if color == "" {
				color = "#7f8c8d"
			}
			title := fmt.Sprintf("%s [%s] %s on %s — %v", s.ev.Name, s.ev.Kind, cat, s.proc,
				time.Duration(s.ev.DurN).Round(time.Microsecond))
			fmt.Fprintf(w, `<div class="sp" style="left:%.3f%%;width:%.3f%%;background:%s" title=%q>%s</div>`,
				left, width, color, title, html.EscapeString(s.ev.Name))
		}
		fmt.Fprintln(w, "</div>")
	}
	return nil
}
