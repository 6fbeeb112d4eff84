package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// smallEnv builds (and caches per test run) the Small-scale environment.
var cachedEnv *Env

func smallEnv(t *testing.T) *Env {
	t.Helper()
	if cachedEnv != nil {
		return cachedEnv
	}
	env, err := BuildEnv(ParamsFor(Small))
	if err != nil {
		t.Fatal(err)
	}
	cachedEnv = env
	return env
}

func TestScaleByName(t *testing.T) {
	for s := Small; s <= Paper; s++ {
		got, err := ScaleByName(s.String())
		if err != nil || got != s {
			t.Errorf("ScaleByName(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestBuildEnvProducesSixPTPs(t *testing.T) {
	env := smallEnv(t)
	names := map[string]bool{}
	for _, p := range env.PTPs() {
		names[p.Name] = true
		if len(p.Prog) == 0 {
			t.Errorf("%s empty", p.Name)
		}
	}
	for _, want := range []string{"IMM", "MEM", "CNTRL", "TPGEN", "RAND", "SFU_IMM"} {
		if !names[want] {
			t.Errorf("missing PTP %s", want)
		}
	}
	if env.TPGENDropped == 0 {
		t.Error("TPGEN conversion dropped nothing; partial conversion not exercised")
	}
}

func TestTableIShape(t *testing.T) {
	env := smallEnv(t)
	t1, err := TableI(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (6 PTPs + 2 combined rows)", len(t1.Rows))
	}
	byName := map[string]PTPStats{}
	for _, r := range t1.Rows {
		byName[r.Name] = r
	}

	// Shape checks against Table I:
	// IMM and MEM are ARC 100% (modulo protected scaffolding), CNTRL less.
	if byName["CNTRL"].ARCPct >= byName["IMM"].ARCPct {
		t.Errorf("CNTRL ARC %.1f >= IMM ARC %.1f", byName["CNTRL"].ARCPct, byName["IMM"].ARCPct)
	}
	// Combined DU FC must be >= each constituent's FC.
	comb := byName["IMM+MEM+CNTRL"]
	for _, n := range []string{"IMM", "MEM", "CNTRL"} {
		if comb.FC+1e-9 < byName[n].FC {
			t.Errorf("combined DU FC %.2f < %s FC %.2f", comb.FC, n, byName[n].FC)
		}
	}
	// Combined SP FC >= TPGEN and RAND.
	sp := byName["TPGEN+RAND"]
	if sp.FC+1e-9 < byName["TPGEN"].FC || sp.FC+1e-9 < byName["RAND"].FC {
		t.Errorf("combined SP FC %.2f below constituents", sp.FC)
	}
	// All FCs meaningful.
	for _, r := range t1.Rows {
		if r.FC <= 20 || r.FC > 100 {
			t.Errorf("%s FC = %.2f implausible", r.Name, r.FC)
		}
		if r.Duration == 0 || r.Size == 0 {
			t.Errorf("%s has zero size/duration", r.Name)
		}
	}

	var buf bytes.Buffer
	t1.Render(&buf)
	if !strings.Contains(buf.String(), "TABLE I") || !strings.Contains(buf.String(), "IMM") {
		t.Error("render output malformed")
	}
}

func TestTableIIShape(t *testing.T) {
	env := smallEnv(t)
	t2, err := TableII(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(t2.Rows))
	}
	byName := map[string]CompactRow{}
	for _, r := range t2.Rows {
		byName[r.Name] = r
	}
	// Every PTP must compact (negative size %).
	for _, n := range []string{"IMM", "MEM", "CNTRL", "IMM+MEM+CNTRL"} {
		r := byName[n]
		if r.SizePct >= 0 {
			t.Errorf("%s did not compact: %.2f%%", n, r.SizePct)
		}
		if r.CompSize <= 0 || r.CompDuration == 0 {
			t.Errorf("%s degenerate row: %+v", n, r)
		}
	}
	// The paper's ordering: MEM (after IMM, with dropping) compacts more
	// than IMM. (IMM > CNTRL only emerges at larger scales, where IMM's
	// redundancy dominates; the benches assert it at Medium.)
	if byName["MEM"].SizePct > byName["IMM"].SizePct {
		t.Errorf("MEM (-%.2f) should compact at least as much as IMM (-%.2f)",
			-byName["MEM"].SizePct, -byName["IMM"].SizePct)
	}
	// CNTRL's duration reduction lags its size reduction (paper: -73.51%
	// size but only -36.95% duration — the inadmissible loops dominate
	// runtime), while IMM reduces both roughly equally.
	cn := byName["CNTRL"]
	if -cn.DurPct > -cn.SizePct {
		t.Errorf("CNTRL duration reduction (%.2f) should lag size reduction (%.2f)",
			cn.DurPct, cn.SizePct)
	}
	// Combined FC loss stays small.
	if byName["IMM+MEM+CNTRL"].DiffFC < -2 {
		t.Errorf("combined DU FC diff %.2f", byName["IMM+MEM+CNTRL"].DiffFC)
	}
	t.Logf("Table II: IMM %.2f%%, MEM %.2f%%, CNTRL %.2f%%, comb %.2f%% (FC %+0.2f)",
		byName["IMM"].SizePct, byName["MEM"].SizePct, byName["CNTRL"].SizePct,
		byName["IMM+MEM+CNTRL"].SizePct, byName["IMM+MEM+CNTRL"].DiffFC)
}

func TestTableIIIShape(t *testing.T) {
	env := smallEnv(t)
	t3, err := TableIII(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (TPGEN, RAND, combined, SFU_IMM)", len(t3.Rows))
	}
	byName := map[string]CompactRow{}
	for _, r := range t3.Rows {
		byName[r.Name] = r
	}
	for _, n := range []string{"TPGEN", "RAND", "TPGEN+RAND", "SFU_IMM"} {
		if byName[n].SizePct >= 0 {
			t.Errorf("%s did not compact: %.2f%%", n, byName[n].SizePct)
		}
	}
	// RAND, compacted after TPGEN with dropping, compacts more than TPGEN
	// (the paper: RAND -97.79 vs TPGEN -75.81) and loses the most
	// standalone FC of all PTPs (paper: -17.07).
	if byName["RAND"].SizePct > byName["TPGEN"].SizePct {
		t.Errorf("RAND (%.2f) should compact more than TPGEN (%.2f)",
			byName["RAND"].SizePct, byName["TPGEN"].SizePct)
	}
	if byName["RAND"].DiffFC > byName["TPGEN+RAND"].DiffFC+1e-9 {
		t.Errorf("RAND standalone FC loss (%.2f) should exceed combined (%.2f)",
			byName["RAND"].DiffFC, byName["TPGEN+RAND"].DiffFC)
	}
	// SFU_IMM: data-independent SBs, FC unaffected (paper: 0.0).
	if byName["SFU_IMM"].DiffFC < -0.5 {
		t.Errorf("SFU_IMM FC diff %.2f, want ~0", byName["SFU_IMM"].DiffFC)
	}
	t.Logf("Table III: TPGEN %.2f%%, RAND %.2f%% (FC %+0.2f), comb %.2f%% (FC %+0.2f), SFU %.2f%% (FC %+0.2f)",
		byName["TPGEN"].SizePct, byName["RAND"].SizePct, byName["RAND"].DiffFC,
		byName["TPGEN+RAND"].SizePct, byName["TPGEN+RAND"].DiffFC,
		byName["SFU_IMM"].SizePct, byName["SFU_IMM"].DiffFC)
}

func TestSTLSummaryShape(t *testing.T) {
	env := smallEnv(t)
	t2, err := TableII(env)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := TableIII(env)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := STLSummary(env, t2, t3)
	if err != nil {
		t.Fatal(err)
	}
	if sum.CandidateSizeShare < 80 || sum.CandidateSizeShare > 98 {
		t.Errorf("candidate size share %.2f%%, want ~90%%", sum.CandidateSizeShare)
	}
	if sum.STLSizeReduction <= 0 || sum.STLSizeReduction >= sum.CandidateSizeShare {
		t.Errorf("STL size reduction %.2f%% out of range", sum.STLSizeReduction)
	}
	if sum.STLDurReduction <= 0 || sum.STLDurReduction >= sum.CandidateDurShare {
		t.Errorf("STL duration reduction %.2f%% out of range", sum.STLDurReduction)
	}
	t.Logf("STL: candidates %.2f%% size / %.2f%% dur; reduction %.2f%% size / %.2f%% dur",
		sum.CandidateSizeShare, sum.CandidateDurShare,
		sum.STLSizeReduction, sum.STLDurReduction)
}

func TestAblations(t *testing.T) {
	env := smallEnv(t)
	ab, err := Ablations(env)
	if err != nil {
		t.Fatal(err)
	}
	if ab.MEMWithDropPct < ab.MEMWithoutDropPct {
		t.Errorf("dropping should increase MEM compaction: %.2f vs %.2f",
			ab.MEMWithDropPct, ab.MEMWithoutDropPct)
	}
	if ab.InsGranPct < ab.SBGranPct {
		t.Errorf("instruction granularity should remove more: %.2f vs %.2f",
			ab.InsGranPct, ab.SBGranPct)
	}
	var buf bytes.Buffer
	ab.Render(&buf)
	if !strings.Contains(buf.String(), "ABLATIONS") {
		t.Error("render malformed")
	}
	t.Logf("\n%s", buf.String())
}

func TestExtensions(t *testing.T) {
	env := smallEnv(t)
	x, err := Extensions(env)
	if err != nil {
		t.Fatal(err)
	}
	if x.FP.SizePct >= 0 {
		t.Errorf("FP_RAND did not compact: %.2f%%", x.FP.SizePct)
	}
	var buf bytes.Buffer
	x.Render(&buf)
	if !strings.Contains(buf.String(), "EXTENSIONS") {
		t.Error("render malformed")
	}
	t.Logf("\n%s", buf.String())
}

func TestBaselineCompare(t *testing.T) {
	env := smallEnv(t)
	bc, err := BaselineCompare(env)
	if err != nil {
		t.Fatal(err)
	}
	if bc.BaselineFaultSims <= bc.ProposedFaultSims {
		t.Errorf("baseline fault sims %d not > proposed %d",
			bc.BaselineFaultSims, bc.ProposedFaultSims)
	}
	if bc.BaselineMillis < bc.ProposedMillis {
		t.Logf("note: baseline faster at this scale (%.1f vs %.1f ms)",
			bc.BaselineMillis, bc.ProposedMillis)
	}
	t.Logf("proposed: 1 sim %.1fms (-%.2f%%); baseline: %d sims %.1fms (-%.2f%%)",
		bc.ProposedMillis, bc.ProposedSizePct,
		bc.BaselineFaultSims, bc.BaselineMillis, bc.BaselineSizePct)
}
