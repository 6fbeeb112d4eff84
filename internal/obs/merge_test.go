package obs

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func msN(d int64) int64 { return d * int64(time.Millisecond) }

// threeProcessFixture models one distributed campaign recorded by three
// processes with deliberately skewed clocks:
//
//	server (reference clock): execute span 0..100ms with a 10ms
//	  queue-wait and a 5ms checkpoint;
//	coordinator (clock +50ms ahead): the client-side shard span,
//	  truly 12..88ms, recorded as 62..138ms;
//	worker (clock -30ms behind): the remote shard execution, truly
//	  15..85ms, recorded as -15..55ms, with a 68ms faultsim inside.
//
// Every span carries the same trace ID, exactly as the propagated
// X-Gpustl-Trace context guarantees in production.
func threeProcessFixture() (trace string, procs []ProcessTrace) {
	trace = NewTraceID().String()
	procs = []ProcessTrace{
		{Proc: "server", Events: []Event{
			{ID: 0x10, Trace: trace, Kind: KindCampaign, Name: "execute:c1",
				StartN: msN(0), DurN: msN(100)},
			{ID: 0x11, Parent: 0x10, Trace: trace, Kind: KindStage, Name: "queue-wait",
				StartN: msN(0), DurN: msN(10)},
			{ID: 0x12, Parent: 0x10, Trace: trace, Kind: KindStage, Name: "checkpoint",
				StartN: msN(90), DurN: msN(5)},
		}},
		{Proc: "coord", Events: []Event{
			{ID: 0x20, Parent: 0x10, Trace: trace, Remote: true, Kind: KindShard,
				Name: "shard:0", Attrs: map[string]string{"side": "client"},
				StartN: msN(12 + 50), DurN: msN(76)},
		}},
		{Proc: "worker", Events: []Event{
			{ID: 0x30, Parent: 0x20, Trace: trace, Remote: true, Kind: KindShard,
				Name: "shard-exec:0", Attrs: map[string]string{"side": "worker"},
				StartN: msN(15 - 30), DurN: msN(70)},
			{ID: 0x31, Parent: 0x30, Trace: trace, Kind: KindStage, Name: "faultsim",
				StartN: msN(16 - 30), DurN: msN(68)},
		}},
	}
	return trace, procs
}

func TestMergeThreeProcessCampaign(t *testing.T) {
	trace, procs := threeProcessFixture()
	m, err := MergeTraces(procs)
	if err != nil {
		t.Fatal(err)
	}

	// Skew must be recovered exactly: the single RPC pair per edge
	// bounds the offset to a symmetric interval around the true value.
	wantSkew := map[string]time.Duration{
		"server": 0,
		"coord":  -50 * time.Millisecond,
		"worker": 30 * time.Millisecond,
	}
	for proc, want := range wantSkew {
		if got := m.Skew[proc]; got != want {
			t.Errorf("skew[%s] = %v, want %v", proc, got, want)
		}
	}
	if len(m.SkewInconsistent) != 0 {
		t.Errorf("consistent fixture flagged inconsistent: %v", m.SkewInconsistent)
	}

	// After correction every child must nest inside its parent, and
	// every span must carry the campaign's trace ID.
	events := m.Events()
	byID := map[uint64]Event{}
	for _, ev := range events {
		byID[ev.ID] = ev
		if ev.Trace != trace {
			t.Errorf("span %s trace = %q, want campaign trace %q", ev.Name, ev.Trace, trace)
		}
	}
	if len(events) != 6 {
		t.Fatalf("merged %d events, want 6", len(events))
	}
	for _, ev := range events {
		if ev.Parent == 0 {
			continue
		}
		p, ok := byID[ev.Parent]
		if !ok {
			t.Fatalf("span %s has unknown parent %#x", ev.Name, ev.Parent)
		}
		if ev.StartN < p.StartN || ev.StartN+ev.DurN > p.StartN+p.DurN {
			t.Errorf("span %s [%v..%v] outside parent %s [%v..%v] after skew correction",
				ev.Name, ev.StartN, ev.StartN+ev.DurN, p.Name, p.StartN, p.StartN+p.DurN)
		}
	}

	// The corrected shard positions are the true ones.
	if got := byID[0x20].StartN - byID[0x10].StartN; got != msN(12) {
		t.Errorf("coord shard starts %+d ns into the campaign, want 12ms", got)
	}
	if got := byID[0x30].StartN - byID[0x10].StartN; got != msN(15) {
		t.Errorf("worker shard starts %+d ns into the campaign, want 15ms", got)
	}
}

func TestMergeCriticalPathTilesWall(t *testing.T) {
	trace, procs := threeProcessFixture()
	m, err := MergeTraces(procs)
	if err != nil {
		t.Fatal(err)
	}
	cp := m.CriticalPath(trace)
	if cp == nil {
		t.Fatal("no critical path for the campaign trace")
	}
	if cp.Wall != 100*time.Millisecond {
		t.Errorf("wall = %v, want 100ms", cp.Wall)
	}
	// Self-time attribution tiles the root exactly; the acceptance bar
	// is 5%, the construction gives 0.
	if diff := math.Abs(float64(cp.Total - cp.Wall)); diff > 0.05*float64(cp.Wall) {
		t.Errorf("category total %v deviates from wall %v by more than 5%%", cp.Total, cp.Wall)
	}
	want := map[string]time.Duration{
		CatSimulate:  70 * time.Millisecond, // worker shard self 2ms + faultsim 68ms
		CatQueue:     10 * time.Millisecond,
		CatOther:     9 * time.Millisecond, // campaign self-time
		CatTransport: 6 * time.Millisecond, // client shard minus worker child
		CatJournal:   5 * time.Millisecond, // checkpoint stage
	}
	got := map[string]time.Duration{}
	for _, c := range cp.Categories {
		got[c.Category] = c.Dur
	}
	for cat, w := range want {
		if got[cat] != w {
			t.Errorf("category %s = %v, want %v (all: %v)", cat, got[cat], w, got)
		}
	}
	if cp.Categories[0].Category != CatSimulate {
		t.Errorf("dominant category = %s, want simulate", cp.Categories[0].Category)
	}
}

func TestMergeRenderers(t *testing.T) {
	trace, procs := threeProcessFixture()
	m, err := MergeTraces(procs)
	if err != nil {
		t.Fatal(err)
	}

	var tty strings.Builder
	m.RenderWaterfall(&tty, trace, 60)
	out := tty.String()
	for _, want := range []string{"execute:c1", "queue-wait", "shard:0", "shard-exec:0", "server", "coord", "worker", trace} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}

	var html strings.Builder
	if err := m.RenderHTML(&html, trace); err != nil {
		t.Fatal(err)
	}
	h := html.String()
	for _, want := range []string{"<!doctype html", trace, "shard-exec:0", "queue-wait"} {
		if !strings.Contains(h, want) {
			t.Errorf("HTML flame view missing %q", want)
		}
	}

	if ids := m.TraceIDs(); len(ids) != 1 || ids[0] != trace {
		t.Errorf("TraceIDs = %v, want [%s]", ids, trace)
	}
}

func TestMergeClampsChildrenUnderResidualSkew(t *testing.T) {
	// A child longer than its parent (drain race / bad clock) cannot be
	// nested by any offset; the merge takes the midpoint and clamps.
	procs := []ProcessTrace{
		{Proc: "a", Events: []Event{
			{ID: 1, Kind: KindCampaign, Name: "c", StartN: msN(0), DurN: msN(10)},
		}},
		{Proc: "b", Events: []Event{
			{ID: 2, Parent: 1, Remote: true, Kind: KindShard, Name: "s",
				StartN: msN(0), DurN: msN(20)},
		}},
	}
	m, err := MergeTraces(procs)
	if err != nil {
		t.Fatal(err)
	}
	var parent, child Event
	for _, ev := range m.Events() {
		if ev.ID == 1 {
			parent = ev
		} else {
			child = ev
		}
	}
	if child.StartN < parent.StartN || child.StartN+child.DurN > parent.StartN+parent.DurN {
		t.Errorf("child [%d..%d] not clamped inside parent [%d..%d]",
			child.StartN, child.StartN+child.DurN, parent.StartN, parent.StartN+parent.DurN)
	}
}

func TestMergeInconsistentPairsReported(t *testing.T) {
	// Two RPC pairs between the same processes whose constraint
	// intervals cannot intersect: the clock moved mid-trace.
	procs := []ProcessTrace{
		{Proc: "a", Events: []Event{
			{ID: 1, Kind: KindCampaign, Name: "c", StartN: msN(0), DurN: msN(100)},
			{ID: 2, Parent: 1, Kind: KindStage, Name: "s1", StartN: msN(0), DurN: msN(10)},
			{ID: 3, Parent: 1, Kind: KindStage, Name: "s2", StartN: msN(50), DurN: msN(10)},
		}},
		{Proc: "b", Events: []Event{
			// First RPC: child nests under s1 only with offset ~ -200ms.
			{ID: 4, Parent: 2, Remote: true, Kind: KindShard, Name: "r1",
				StartN: msN(202), DurN: msN(6)},
			// Second RPC: child nests under s2 only with offset ~ +100ms.
			{ID: 5, Parent: 3, Remote: true, Kind: KindShard, Name: "r2",
				StartN: msN(-48), DurN: msN(6)},
		}},
	}
	m, err := MergeTraces(procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.SkewInconsistent) == 0 {
		t.Fatal("contradictory RPC constraints not reported")
	}
	// Even with an unreliable estimate, no child may escape its parent.
	byID := map[uint64]Event{}
	for _, ev := range m.Events() {
		byID[ev.ID] = ev
	}
	for _, ev := range m.Events() {
		if ev.Parent == 0 {
			continue
		}
		p := byID[ev.Parent]
		if ev.StartN < p.StartN || ev.StartN+ev.DurN > p.StartN+p.DurN {
			t.Errorf("span %s outside parent %s despite clamping", ev.Name, p.Name)
		}
	}
}

func TestMergeRejectsDuplicateSpanIDs(t *testing.T) {
	procs := []ProcessTrace{
		{Proc: "a", Events: []Event{{ID: 7, Kind: KindCampaign, Name: "c", DurN: 1}}},
		{Proc: "b", Events: []Event{{ID: 7, Kind: KindShard, Name: "s", DurN: 1}}},
	}
	if _, err := MergeTraces(procs); err == nil {
		t.Fatal("duplicate span IDs across files not rejected")
	}
}

// TestMergeList pins `stltrace -list`: one row per trace read back from
// a JSONL file, slowest root first, carrying the root's tenant and
// cache annotations only when the root has them. A longer orphan
// non-campaign root must not displace its trace's campaign root.
func TestMergeList(t *testing.T) {
	fast, slow := NewTraceID().String(), NewTraceID().String()
	events := []Event{
		{ID: 0x10, Trace: fast, Kind: KindCampaign, Name: "execute:c1",
			StartN: msN(0), DurN: msN(40), Attrs: map[string]string{"tenant": "acme"}},
		{ID: 0x11, Parent: 0x10, Trace: fast, Kind: KindStage, Name: "queue-wait",
			StartN: msN(0), DurN: msN(5)},
		{ID: 0x12, Parent: 0x99, Trace: fast, Remote: true, Kind: KindShard,
			Name: "shard-exec:0", StartN: msN(0), DurN: msN(500)},
		{ID: 0x20, Trace: slow, Kind: KindCampaign, Name: "execute:c2",
			StartN: msN(50), DurN: msN(120), Attrs: map[string]string{"tenant": "beta", "cache": "hit"}},
	}
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "server.jsonl")
	if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	read, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MergeTraces([]ProcessTrace{{Proc: "server", Events: read}})
	if err != nil {
		t.Fatal(err)
	}

	got := m.List()
	want := []TraceListing{
		{ID: slow, Wall: 120 * time.Millisecond, Tenant: "beta", Cache: "hit"},
		{ID: fast, Wall: 40 * time.Millisecond, Tenant: "acme"},
	}
	if len(got) != len(want) {
		t.Fatalf("List = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("List[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if s := got[0].String(); !strings.HasPrefix(s, slow) || !strings.HasSuffix(s, "120ms  tenant=beta  cache=hit") {
		t.Errorf("row 0 = %q", s)
	}
	if s := got[1].String(); !strings.HasSuffix(s, "40ms  tenant=acme") {
		t.Errorf("row 1 = %q", s)
	}
}
