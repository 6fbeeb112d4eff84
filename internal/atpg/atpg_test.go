package atpg

import (
	"context"
	"errors"
	"testing"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/netlist"
)

// generate runs Generate, failing the test on error.
func generate(t testing.TB, m *circuits.Module, opt Options) *Result {
	t.Helper()
	res, err := Generate(context.Background(), m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGenerateCanceled checks that a done context stops both entry
// points with context.Canceled and no result.
func TestGenerateCanceled(t *testing.T) {
	m, err := circuits.Build(circuits.ModuleSP, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := Generate(ctx, m, DefaultOptions(1)); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("Generate with a canceled context = %v, %v; want nil, context.Canceled", res, err)
	}
	if pats, err := StaticCompact(ctx, m, []circuits.Pattern{{}}, DefaultOptions(1)); !errors.Is(err, context.Canceled) || pats != nil {
		t.Fatalf("StaticCompact with a canceled context = %v, %v; want nil, context.Canceled", pats, err)
	}
}

// buildTestCircuit returns a small circuit with redundancy-free logic:
// y = (a AND b) OR (NOT c), z = a XOR c.
func buildTestCircuit(t testing.TB) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("small")
	a := b.Input("a")
	c := b.Input("b")
	d := b.Input("c")
	b.Output("y", b.Or(b.And(a, c), b.Not(d)))
	b.Output("z", b.Xor(a, d))
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// buildRedundant returns a circuit with an untestable fault: y = a OR
// (a AND NOT a) — the AND output is constant 0, its sa0 is undetectable.
func buildRedundant(t testing.TB) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("red")
	a := b.Input("a")
	and := b.And(a, b.Not(a))
	b.Output("y", b.Or(a, and))
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// verifyPatternDetects checks with the fault simulator that pat detects f.
func verifyPatternDetects(t *testing.T, nl *netlist.Netlist, f netlist.FaultSite, pat circuits.Pattern) {
	t.Helper()
	ev, err := netlist.NewEvaluator(nl)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]uint64, len(nl.Inputs))
	pat.ApplyTo(in, 0)
	if err := ev.Run(in); err != nil {
		t.Fatal(err)
	}
	if ev.FaultDetect(f)&1 != 1 {
		t.Fatalf("PODEM pattern %+v does not detect %v", pat, f)
	}
}

func TestPodemSmallCircuitAllFaults(t *testing.T) {
	nl := buildTestCircuit(t)
	for _, f := range fault.AllSites(nl) {
		pd := newPodem(nl, f, 100)
		pat, out := pd.run()
		if out != podemFound {
			t.Fatalf("fault %v: outcome %d in an irredundant circuit", f, out)
		}
		verifyPatternDetects(t, nl, f, pat)
	}
}

func TestPodemUntestableFault(t *testing.T) {
	nl := buildRedundant(t)
	// The AND gate drives constant 0; its output sa0 is untestable.
	var andGate int32 = -1
	for id, g := range nl.Gates {
		if g.Kind == netlist.KAnd {
			andGate = int32(id)
		}
	}
	if andGate < 0 {
		t.Fatal("no AND gate")
	}
	pd := newPodem(nl, netlist.FaultSite{Gate: andGate, Pin: -1, SA1: false}, 100)
	if _, out := pd.run(); out != podemUntestable {
		t.Fatalf("redundant fault: outcome %d, want proven untestable", out)
	}
	// With no backtrack allowed, the same search stops at its first flip
	// before it can prove anything.
	pd = newPodem(nl, netlist.FaultSite{Gate: andGate, Pin: -1, SA1: false}, 0)
	if _, out := pd.run(); out != podemAborted {
		t.Fatalf("redundant fault, no backtracks: outcome %d, want aborted", out)
	}
	// The same gate's sa1 IS testable (forces y=1 when a=0).
	pd = newPodem(nl, netlist.FaultSite{Gate: andGate, Pin: -1, SA1: true}, 100)
	pat, out := pd.run()
	if out != podemFound {
		t.Fatal("testable sa1 not found")
	}
	verifyPatternDetects(t, nl, netlist.FaultSite{Gate: andGate, Pin: -1, SA1: true}, pat)
}

func TestPodemOnSPSample(t *testing.T) {
	m, err := circuits.Build(circuits.ModuleSP, 1)
	if err != nil {
		t.Fatal(err)
	}
	sites := fault.AllSites(m.NL)
	// Deterministically spread a sample across the whole circuit.
	step := len(sites) / 60
	ok, bad := 0, 0
	for i := 0; i < len(sites); i += step {
		pd := newPodem(m.NL, sites[i], 500)
		pat, out := pd.run()
		if out != podemFound {
			bad++
			continue
		}
		verifyPatternDetects(t, m.NL, sites[i], pat)
		ok++
	}
	if ok < bad {
		t.Fatalf("PODEM solved only %d/%d sampled SP faults", ok, ok+bad)
	}
	t.Logf("PODEM on SP sample: %d found, %d untestable/aborted", ok, bad)
}

func TestGenerateOnSP(t *testing.T) {
	m, err := circuits.Build(circuits.ModuleSP, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(1)
	opt.SampleFaults = 3000
	res := generate(t, m, opt)
	if res.Coverage() < 85 {
		t.Errorf("ATPG coverage = %.1f%%, want >= 85%%", res.Coverage())
	}
	if len(res.Patterns) == 0 || res.RandomDet == 0 {
		t.Fatal("no patterns / no random detections")
	}
	// ATPG pattern sets must be far smaller than the fault list.
	if len(res.Patterns) > res.TotalFaults/2 {
		t.Errorf("pattern set too large: %d patterns for %d faults",
			len(res.Patterns), res.TotalFaults)
	}
	t.Logf("SP ATPG: %d faults, %d patterns (%d random, %d PODEM-era), cov %.2f%%, untestable %d, aborted %d",
		res.TotalFaults, len(res.Patterns), res.RandPatterns,
		len(res.Patterns)-res.RandPatterns, res.Coverage(), res.Untestable, res.Aborted)
}

func TestGenerateOnSFU(t *testing.T) {
	m, err := circuits.Build(circuits.ModuleSFU, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(2)
	opt.SampleFaults = 1500
	opt.RandomBlocks = 128
	res := generate(t, m, opt)
	if res.Coverage() < 75 {
		t.Errorf("SFU ATPG coverage = %.1f%%", res.Coverage())
	}
	t.Logf("SFU ATPG: %d faults, %d patterns, cov %.2f%%, untestable %d, aborted %d",
		res.TotalFaults, len(res.Patterns), res.Coverage(), res.Untestable, res.Aborted)
}

func TestKeepAllBlocksAddsRedundancy(t *testing.T) {
	m, err := circuits.Build(circuits.ModuleSP, 1)
	if err != nil {
		t.Fatal(err)
	}
	strict := DefaultOptions(7)
	strict.SampleFaults = 1200
	strict.UsePodem = false
	sres := generate(t, m, strict)

	keep := strict
	keep.KeepAllBlocks = 4
	kres := generate(t, m, keep)

	// Same coverage (the fault campaign is identical), more patterns (the
	// early blocks are emitted wholesale, like a raw ATPG pattern file).
	if kres.Coverage() != sres.Coverage() {
		t.Errorf("coverage changed: %.2f vs %.2f", kres.Coverage(), sres.Coverage())
	}
	if len(kres.Patterns) <= len(sres.Patterns) {
		t.Errorf("keep-all produced %d patterns, strict %d", len(kres.Patterns), len(sres.Patterns))
	}
	t.Logf("strict %d patterns, keep-all(4) %d patterns, coverage %.2f%%",
		len(sres.Patterns), len(kres.Patterns), kres.Coverage())
}

func TestGenerateDeterminism(t *testing.T) {
	m, err := circuits.Build(circuits.ModuleSP, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(5)
	opt.SampleFaults = 500
	opt.UsePodem = false
	a := generate(t, m, opt)
	b := generate(t, m, opt)
	if len(a.Patterns) != len(b.Patterns) || a.RandomDet != b.RandomDet {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d",
			len(a.Patterns), a.RandomDet, len(b.Patterns), b.RandomDet)
	}
	for i := range a.Patterns {
		if a.Patterns[i] != b.Patterns[i] {
			t.Fatalf("pattern %d differs", i)
		}
	}
}

func TestStaticCompactPreservesCoverage(t *testing.T) {
	m, err := circuits.Build(circuits.ModuleSP, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(9)
	opt.SampleFaults = 1200
	opt.KeepAllBlocks = 4 // deliberately redundant pattern set
	opt.UsePodem = false
	res := generate(t, m, opt)

	compacted, err := StaticCompact(context.Background(), m, res.Patterns, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(compacted) >= len(res.Patterns) {
		t.Fatalf("no static compaction: %d -> %d", len(res.Patterns), len(compacted))
	}

	coverage := func(pats []circuits.Pattern) int {
		camp := fault.NewCampaignWithFaults(m, fault.ExpandLanes(fault.AllSites(m.NL), 1))
		camp.SampleFaults(opt.SampleFaults, opt.Seed)
		stream := make([]fault.TimedPattern, len(pats))
		for i, p := range pats {
			stream[i] = fault.TimedPattern{CC: uint64(i), Pat: p}
		}
		if _, err := camp.SimulateCtx(context.Background(), stream, fault.SimOptions{}); err != nil {
			t.Fatal(err)
		}
		return camp.Detected()
	}
	before, after := coverage(res.Patterns), coverage(compacted)
	if after != before {
		t.Fatalf("coverage changed: %d -> %d faults", before, after)
	}
	t.Logf("static compaction: %d -> %d patterns, coverage preserved (%d faults)",
		len(res.Patterns), len(compacted), before)
}

func TestGenerateForSites(t *testing.T) {
	nl := buildTestCircuit(t)
	sites := fault.AllSites(nl)[:6]
	pats, untestable, aborted := GenerateForSites(nl, sites, 100)
	if untestable != 0 || aborted != 0 || len(pats) != 6 {
		t.Fatalf("pats=%d untestable=%d aborted=%d", len(pats), untestable, aborted)
	}
}

func TestThreeValuedOps(t *testing.T) {
	if and3(v0, vX) != v0 || and3(v1, vX) != vX || and3(v1, v1) != v1 {
		t.Error("and3")
	}
	if or3(v1, vX) != v1 || or3(v0, vX) != vX || or3(v0, v0) != v0 {
		t.Error("or3")
	}
	if xor3(v1, v0) != v1 || xor3(vX, v0) != vX || xor3(v1, v1) != v0 {
		t.Error("xor3")
	}
	if not3(vX) != vX || not3(v0) != v1 {
		t.Error("not3")
	}
	if mux3(vX, v1, v1) != v1 || mux3(vX, v0, v1) != vX || mux3(v1, v0, v1) != v1 {
		t.Error("mux3")
	}
}
