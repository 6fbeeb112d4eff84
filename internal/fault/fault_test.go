package fault

import (
	"context"
	"math/rand"
	"testing"

	"gpustl/internal/circuits"
	"gpustl/internal/isa"
	"gpustl/internal/netlist"
	"gpustl/internal/obs"
)

func spModule(t testing.TB) *circuits.Module {
	t.Helper()
	m, err := circuits.Build(circuits.ModuleSP, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func duModule(t testing.TB) *circuits.Module {
	t.Helper()
	m, err := circuits.Build(circuits.ModuleDU, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAllSitesCounts(t *testing.T) {
	m := spModule(t)
	sites := AllSites(m.NL)
	// Expect 2 output faults per gate plus 2 per input pin; the SP module
	// replicated over 8 lanes must be in the ~200k ballpark of the paper's
	// 191,616 functional-unit faults.
	total := len(sites) * m.Lanes
	if total < 100000 || total > 400000 {
		t.Errorf("SP lane-expanded faults = %d, want ~200k", total)
	}
	t.Logf("SP faults: %d/lane, %d total", len(sites), total)

	for _, s := range sites {
		g := m.NL.Gates[s.Gate]
		if g.Kind == netlist.KConst0 || g.Kind == netlist.KConst1 {
			t.Fatalf("constant gate in fault list: %v", s)
		}
		if s.Pin >= 0 && int(s.Pin) >= g.NumIn() {
			t.Fatalf("pin out of range: %v", s)
		}
	}
}

func TestCollapseEquivalentShrinks(t *testing.T) {
	m := duModule(t)
	sites := AllSites(m.NL)
	col := CollapseEquivalent(m.NL, sites)
	if len(col) >= len(sites) {
		t.Fatalf("collapsing did not shrink: %d -> %d", len(sites), len(col))
	}
	if len(col) < len(sites)/4 {
		t.Fatalf("collapsing too aggressive: %d -> %d", len(sites), len(col))
	}
	t.Logf("DU collapse: %d -> %d", len(sites), len(col))
}

func TestExpandLanes(t *testing.T) {
	sites := []netlist.FaultSite{{Gate: 1, Pin: -1, SA1: true}}
	fs := ExpandLanes(sites, 3)
	if len(fs) != 3 || fs[0].Lane != 0 || fs[2].Lane != 2 {
		t.Fatalf("expand: %+v", fs)
	}
}

// randomSPStream builds n random SP patterns across the module's lanes.
func randomSPStream(r *rand.Rand, lanes, n int) []TimedPattern {
	stream := make([]TimedPattern, n)
	for i := range stream {
		fn := circuits.SPFn(r.Intn(circuits.NumSPFns))
		p := circuits.EncodeSPPattern(fn, isa.Cond(r.Intn(isa.NumConds)),
			r.Uint32(), r.Uint32(), r.Uint32())
		stream[i] = TimedPattern{
			CC:   uint64(i * 7),
			Lane: int16(i % lanes),
			Warp: 0,
			PC:   int32(i / 32),
			Pat:  p,
		}
	}
	return stream
}

func TestSimulateDetectsAndDrops(t *testing.T) {
	m := spModule(t)
	c := NewCampaign(m)
	c.SampleFaults(2000, 1)
	r := rand.New(rand.NewSource(42))
	stream := randomSPStream(r, m.Lanes, 4096)

	rep := c.Simulate(stream, SimOptions{})
	if rep.NumPatterns != len(stream) {
		t.Fatalf("NumPatterns = %d", rep.NumPatterns)
	}
	if got := rep.DetectedThisRun(); got == 0 {
		t.Fatal("no faults detected by 4096 random patterns")
	}
	if c.Detected() != rep.DetectedThisRun() {
		t.Fatalf("campaign detected %d != report %d", c.Detected(), rep.DetectedThisRun())
	}
	cov := c.Coverage()
	if cov < 50 {
		t.Errorf("random-pattern coverage only %.1f%%", cov)
	}
	t.Logf("coverage after 4096 random patterns: %.2f%% (%d/%d)", cov, c.Detected(), c.Total())

	// Per-pattern counts must sum to the total detections.
	var sum int32
	for _, v := range rep.DetectedPerPattern {
		sum += v
	}
	if int(sum) != len(rep.Detections) {
		t.Fatalf("per-pattern sum %d != detections %d", sum, len(rep.Detections))
	}

	// A second identical run must detect nothing new (all dropped).
	rep2 := c.Simulate(stream, SimOptions{})
	if rep2.DetectedThisRun() != 0 {
		t.Fatalf("dropped faults re-detected: %d", rep2.DetectedThisRun())
	}

	// After Reset the same run detects the same faults.
	c.Reset()
	rep3 := c.Simulate(stream, SimOptions{})
	if rep3.DetectedThisRun() != rep.DetectedThisRun() {
		t.Fatalf("after reset: %d != %d", rep3.DetectedThisRun(), rep.DetectedThisRun())
	}
}

func TestSimulateDeterminism(t *testing.T) {
	m := spModule(t)
	r := rand.New(rand.NewSource(4))
	stream := randomSPStream(r, m.Lanes, 1024)

	c1 := NewCampaign(m)
	c1.SampleFaults(500, 7)
	c2 := NewCampaign(m)
	c2.SampleFaults(500, 7)

	r1 := c1.Simulate(stream, SimOptions{})
	r2 := c2.Simulate(stream, SimOptions{})
	if len(r1.Detections) != len(r2.Detections) {
		t.Fatalf("non-deterministic: %d vs %d", len(r1.Detections), len(r2.Detections))
	}
	for i := range r1.Detections {
		if r1.Detections[i] != r2.Detections[i] {
			t.Fatalf("detection %d differs: %+v vs %+v", i, r1.Detections[i], r2.Detections[i])
		}
	}
}

// TestFirstDetectionIsEarliest verifies, against a brute-force per-pattern
// scan, that each fault's recorded detection is the earliest stream
// position that detects it within its lane.
func TestFirstDetectionIsEarliest(t *testing.T) {
	m := spModule(t)
	c := NewCampaign(m)
	c.SampleFaults(150, 3)
	r := rand.New(rand.NewSource(8))
	stream := randomSPStream(r, m.Lanes, 600)
	rep := c.Simulate(stream, SimOptions{})

	// Brute force: single-pattern blocks.
	ev, err := netlist.NewEvaluator(m.NL)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]uint64, len(m.NL.Inputs))
	firstDet := map[ID]int32{}
	for si, tp := range stream {
		for i := range inputs {
			inputs[i] = 0
		}
		tp.Pat.ApplyTo(inputs, 0)
		if err := ev.Run(inputs); err != nil {
			t.Fatal(err)
		}
		for id, f := range c.Faults() {
			if int(f.Lane) != int(tp.Lane) {
				continue
			}
			if _, ok := firstDet[ID(id)]; ok {
				continue
			}
			if ev.FaultDetect(f.Site)&1 == 1 {
				firstDet[ID(id)] = int32(si)
			}
		}
	}
	if len(firstDet) != len(rep.Detections) {
		t.Fatalf("brute force found %d detections, sim %d", len(firstDet), len(rep.Detections))
	}
	for _, d := range rep.Detections {
		if want, ok := firstDet[d.Fault]; !ok || want != d.Pattern {
			t.Fatalf("fault %d: sim pattern %d, brute %d (ok=%v)", d.Fault, d.Pattern, want, ok)
		}
	}
}

func TestReverseOrder(t *testing.T) {
	m := spModule(t)
	r := rand.New(rand.NewSource(6))
	stream := randomSPStream(r, m.Lanes, 512)

	c := NewCampaign(m)
	c.SampleFaults(300, 2)
	fwd := c.Simulate(stream, SimOptions{})
	c.Reset()
	rev := c.Simulate(stream, SimOptions{Reverse: true})
	if fwd.DetectedThisRun() != rev.DetectedThisRun() {
		t.Fatalf("total detections must not depend on order: %d vs %d",
			fwd.DetectedThisRun(), rev.DetectedThisRun())
	}
	// The reversed report's metadata must be in reversed stream order.
	if rev.CCs[0] != stream[len(stream)-1].CC {
		t.Fatalf("reverse metadata: first cc %d", rev.CCs[0])
	}
}

func TestCoverageByGroup(t *testing.T) {
	m := spModule(t)
	c := NewCampaign(m)
	c.SampleFaults(3000, 19)
	r := rand.New(rand.NewSource(20))
	c.Simulate(randomSPStream(r, m.Lanes, 4096), SimOptions{})

	groups := c.CoverageByGroup()
	if len(groups) < 5 {
		t.Fatalf("only %d groups: %+v", len(groups), groups)
	}
	var total, det int
	names := map[string]bool{}
	for _, g := range groups {
		total += g.Total
		det += g.Detected
		names[g.Group] = true
		if g.Detected > g.Total {
			t.Fatalf("group %q: detected %d > total %d", g.Group, g.Detected, g.Total)
		}
	}
	if total != c.Total() || det != c.Detected() {
		t.Fatalf("group sums %d/%d != campaign %d/%d", det, total, c.Detected(), c.Total())
	}
	// The SP builder tags these functional blocks.
	for _, want := range []string{"multiplier", "shifter", "addsub", "result-select"} {
		if !names[want] {
			t.Errorf("missing group %q (have %v)", want, names)
		}
	}
	for _, g := range groups {
		t.Logf("  %-14s %5d/%5d (%.1f%%)", g.Group, g.Detected, g.Total, g.Pct())
	}
}

func TestCampaignWithExplicitFaults(t *testing.T) {
	m := spModule(t)
	sites := AllSites(m.NL)[:10]
	c := NewCampaignWithFaults(m, ExpandLanes(sites, m.Lanes))
	if c.Total() != 10*m.Lanes {
		t.Fatalf("total = %d", c.Total())
	}
	if c.Coverage() != 0 {
		t.Fatalf("initial coverage %f", c.Coverage())
	}
}

func TestLaneIsolation(t *testing.T) {
	// Patterns on lane 0 must not detect lane-1 faults.
	m := spModule(t)
	sites := AllSites(m.NL)[:50]
	c := NewCampaignWithFaults(m, ExpandLanes(sites, m.Lanes))
	r := rand.New(rand.NewSource(14))
	stream := make([]TimedPattern, 500)
	for i := range stream {
		stream[i] = TimedPattern{
			CC:   uint64(i),
			Lane: 0,
			Pat: circuits.EncodeSPPattern(circuits.SPFn(r.Intn(circuits.NumSPFns)),
				isa.CondLT, r.Uint32(), r.Uint32(), r.Uint32()),
		}
	}
	rep := c.Simulate(stream, SimOptions{})
	for _, d := range rep.Detections {
		if c.Faults()[d.Fault].Lane != 0 {
			t.Fatalf("lane-%d fault detected by lane-0 pattern", c.Faults()[d.Fault].Lane)
		}
	}
}

func BenchmarkSimulateSP(b *testing.B) {
	m, err := circuits.Build(circuits.ModuleSP, 0)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	stream := randomSPStream(r, m.Lanes, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCampaign(m)
		c.SampleFaults(5000, 1)
		c.Simulate(stream, SimOptions{})
	}
}

// BenchmarkSimulateSPMetrics is BenchmarkSimulateSP with a live metrics
// registry attached. Comparing the two in BENCH_obs.json proves the
// instrumentation overhead on the fault-sim inner loop is under 1%:
// metrics are recorded once per campaign, after the shard merge, never
// per pattern.
func BenchmarkSimulateSPMetrics(b *testing.B) {
	m, err := circuits.Build(circuits.ModuleSP, 0)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	stream := randomSPStream(r, m.Lanes, 8192)
	reg := obs.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCampaign(m)
		c.SampleFaults(5000, 1)
		c.Simulate(stream, SimOptions{Metrics: reg})
	}
}

// TestSampleFaultsAfterRun covers sampling a campaign that has already
// simulated: the cone ordering cached by the first run indexes the old
// fault list, so SampleFaults must drop it. The sampled-after-run
// campaign must report exactly what a freshly sampled one does.
func TestSampleFaultsAfterRun(t *testing.T) {
	m := duModule(t)
	r := rand.New(rand.NewSource(23))
	stream := randomDUStream(r, 200)

	c := NewCampaign(m)
	if _, err := c.SimulateCtx(context.Background(), stream, SimOptions{}); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	c.SampleFaults(300, 1)
	got, err := c.SimulateCtx(context.Background(), stream, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewCampaign(m)
	fresh.SampleFaults(300, 1)
	want, err := fresh.SimulateCtx(context.Background(), stream, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Detections) != len(want.Detections) || len(want.Detections) == 0 {
		t.Fatalf("sampled after run: %d detections, fresh sample %d",
			len(got.Detections), len(want.Detections))
	}
	for i := range want.Detections {
		if got.Detections[i] != want.Detections[i] {
			t.Fatalf("detection %d: %+v, fresh sample %+v", i, got.Detections[i], want.Detections[i])
		}
	}
	for i := range want.DetectedPerPattern {
		if got.DetectedPerPattern[i] != want.DetectedPerPattern[i] {
			t.Fatalf("pattern %d: %d detections, fresh sample %d",
				i, got.DetectedPerPattern[i], want.DetectedPerPattern[i])
		}
	}
	if c.Detected() != fresh.Detected() {
		t.Fatalf("campaign detected %d, fresh sample %d", c.Detected(), fresh.Detected())
	}
}
