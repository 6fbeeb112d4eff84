package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gpustl/internal/circuits"
	"gpustl/internal/dist"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/obs"
	"gpustl/internal/ptpgen"
	"gpustl/internal/stl"
)

// The oracles: stage 3 and the FC evaluation as full-list simulations,
// with no fault's outcome taken from the original's standalone run. They
// live in test code only; the production helpers (dropFaults,
// evaluateFC) are held to them.

// fullFC simulates every fault of the list on a fresh campaign.
func (c *Compactor) fullFC(ctx context.Context, patterns []fault.TimedPattern) (float64, []fault.ID, error) {
	fc := fault.NewCampaignWithFaults(c.Module, c.Campaign.Faults())
	if _, err := c.simulate(ctx, fc, patterns, fault.SimOptions{Workers: c.Opt.Workers}); err != nil {
		return 0, nil, err
	}
	return fc.Coverage(), fc.DetectedIDs(), nil
}

// fullStage3 simulates every undetected fault of the shared campaign,
// which the engine commits the detections to.
func (c *Compactor) fullStage3(ctx context.Context, patterns []fault.TimedPattern) (*fault.Report, error) {
	return c.simulate(ctx, c.Campaign, patterns, fault.SimOptions{
		Reverse: c.Opt.ReversePatterns,
		Workers: c.Opt.Workers,
	})
}

// compactReference is the pipeline with the oracles in place of the
// subset runs, and with its own join of the FSR to instructions
// (LabelDetailed's per-warp hits) and its own label and removed-SB
// counts. Stage 4 is reduce; reassembling is the production code.
func (c *Compactor) compactReference(t *testing.T, p *stl.PTP, reduce reducer) *Result {
	t.Helper()
	ctx := context.Background()
	sbs, candidates, err := c.partition(p)
	if err != nil {
		t.Fatal(err)
	}
	col, cycles, err := c.runTrace(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	origFC, origDet, err := c.fullFC(ctx, col.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.fullStage3(ctx, col.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	label := LabelDetailed(len(p.Prog), rep, col.CCToPC())
	det := make([]int32, len(p.Prog))
	for pc, hits := range label.WarpHits {
		for _, n := range hits {
			det[pc] += int32(n)
		}
	}
	var nEss, nUness int
	for i, sb := range sbs {
		if !candidates[i] {
			continue
		}
		for pc := sb.Start; pc < sb.End; pc++ {
			if label.Essential[pc] {
				nEss++
			} else {
				nUness++
			}
		}
	}
	removed := reduce(sbs, candidates, det)
	comp, err := Reassemble(p, sbs, removed)
	if err != nil {
		t.Fatal(err)
	}
	compCol, compCycles, err := c.runTrace(ctx, comp, col)
	if err != nil {
		t.Fatal(err)
	}
	compFC, compDet, err := c.fullFC(ctx, compCol.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	return &Result{
		Original: p, Compacted: comp,
		OrigSize: len(p.Prog), CompSize: len(comp.Prog),
		OrigDuration: cycles, CompDuration: compCycles,
		OrigFC: origFC, CompFC: compFC,
		OrigDetected: origDet, CompDetected: compDet,
		TotalSBs: len(sbs), RemovedSBs: countRemovedSBs(sbs, removed),
		Essential: nEss, Unessential: nUness,
		DetectedThisRun: rep.DetectedThisRun(),
	}
}

// countRemovedSBs counts the SBs all of whose instructions are in removed.
func countRemovedSBs(sbs []stl.SB, removed []int) int {
	rm := make(map[int]bool, len(removed))
	for _, pc := range removed {
		rm[pc] = true
	}
	n := 0
	for _, sb := range sbs {
		all := true
		for pc := sb.Start; pc < sb.End; pc++ {
			if !rm[pc] {
				all = false
				break
			}
		}
		if all {
			n++
		}
	}
	return n
}

// spPatterns and sfuPatterns are random operand tuples standing in for
// ATPG output, which TPGEN and SFU_IMM turn into programs.
func spPatterns(n int, seed int64) []circuits.Pattern {
	r := rand.New(rand.NewSource(seed))
	pats := make([]circuits.Pattern, n)
	for i := range pats {
		pats[i] = circuits.EncodeSPPattern(circuits.SPFn(r.Intn(circuits.NumSPFns)),
			0, r.Uint32(), r.Uint32(), r.Uint32())
		pats[i].W[1] |= uint64(r.Intn(6)) << 36 // condition field
	}
	return pats
}

func sfuPatterns(n int, seed int64) []circuits.Pattern {
	r := rand.New(rand.NewSource(seed))
	pats := make([]circuits.Pattern, n)
	for i := range pats {
		pats[i] = circuits.EncodeSFUPattern(circuits.SFUFn(r.Intn(circuits.NumSFUFns)), r.Uint32())
	}
	return pats
}

// subsetLibrary is one module's PTPs, compacted in order on one shared
// campaign so that later PTPs meet faults earlier ones dropped.
type subsetLibrary struct {
	name    string
	kind    circuits.ModuleKind
	faults  int
	reverse bool
	ptps    []*stl.PTP
}

func subsetLibraries() []subsetLibrary {
	tpgen, _ := ptpgen.TPGEN(spPatterns(40, 21), 22)
	sfu, _ := ptpgen.SFUIMM(sfuPatterns(40, 23), 24)
	return []subsetLibrary{
		{name: "DU", kind: circuits.ModuleDU, faults: 2500,
			ptps: []*stl.PTP{ptpgen.IMM(40, 31), ptpgen.MEM(40, 32), ptpgen.CNTRL(8, 33)}},
		{name: "SP", kind: circuits.ModuleSP, faults: 3000,
			ptps: []*stl.PTP{tpgen, ptpgen.RAND(30, 34)}},
		{name: "SFU/reverse", kind: circuits.ModuleSFU, faults: 2000, reverse: true,
			ptps: []*stl.PTP{sfu}},
	}
}

// sameResult fails t unless got equals want in every field but the
// wall-clock CompactionTime.
func sameResult(t *testing.T, ptp string, got, want *Result) {
	t.Helper()
	g, w := *got, *want
	g.CompactionTime, w.CompactionTime = 0, 0
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: subset runs give\n%+v\nfull simulations give\n%+v", ptp, g, w)
	}
}

// TestCompactPTPMatchesFullSimulation holds every Result field of the
// subset runs, and the shared campaign after each PTP, to the full-list
// simulations: IMM, MEM (data relocation) and CNTRL (branch repair) on
// the DU, TPGEN and RAND on the 8-lane SP, SFU_IMM under
// ReversePatterns. Each library runs once through CompactPTP (Fig. 3)
// and once through CompactToBudget at 3/4 of each PTP's traced
// duration; a PTP whose mandatory cost exceeds that must be refused with
// the shared campaign unchanged.
func TestCompactPTPMatchesFullSimulation(t *testing.T) {
	for _, lib := range subsetLibraries() {
		t.Run(lib.name, func(t *testing.T) {
			m := module(t, lib.kind)
			faults := sampledFaults(t, m, lib.faults, 41)
			opt := Options{ReversePatterns: lib.reverse}
			t.Run("fig3", func(t *testing.T) {
				sub := New(gpu.DefaultConfig(), m, faults, opt)
				ref := New(gpu.DefaultConfig(), m, faults, opt)
				for _, p := range lib.ptps {
					got, err := sub.CompactPTP(p)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, p.Name, got, ref.compactReference(t, p, ref.reduce))
					if !reflect.DeepEqual(sub.Campaign.DetectedIDs(), ref.Campaign.DetectedIDs()) {
						t.Fatalf("%s: shared campaigns differ after the PTP", p.Name)
					}
				}
			})
			t.Run("budget", func(t *testing.T) {
				sub := New(gpu.DefaultConfig(), m, faults, opt)
				ref := New(gpu.DefaultConfig(), m, faults, opt)
				removedSBs := 0
				for _, p := range lib.ptps {
					sbs, candidates, err := ref.partition(p)
					if err != nil {
						t.Fatal(err)
					}
					tr, err := ref.TracePTP(context.Background(), p)
					if err != nil {
						t.Fatal(err)
					}
					budget := tr.cycles * 3 / 4
					reduce, fitErr := budgetReducer(p, sbs, candidates, tr, budget)
					got, err := sub.CompactToBudget(p, budget)
					if fitErr != nil {
						if err == nil {
							t.Fatalf("%s: budget below the mandatory cost accepted (%v)", p.Name, fitErr)
						}
						t.Logf("%s: %v", p.Name, err)
					} else {
						if err != nil {
							t.Fatal(err)
						}
						sameResult(t, p.Name, got, ref.compactReference(t, p, reduce))
						removedSBs += got.RemovedSBs
					}
					if !reflect.DeepEqual(sub.Campaign.DetectedIDs(), ref.Campaign.DetectedIDs()) {
						t.Fatalf("%s: shared campaigns differ after the PTP", p.Name)
					}
				}
				if removedSBs == 0 {
					t.Fatal("the budget removed nothing; the compacted FC was not exercised")
				}
			})
		})
	}
}

// FuzzSubsetRuns removes random SBs through Reassemble and holds the
// subset runs to the full-list simulations: stage 3's FSR and labels,
// the shared campaign it leaves, and OrigDetected and CompDetected. A
// random share of the faults is dropped beforehand, as earlier PTPs of a
// library would.
func FuzzSubsetRuns(f *testing.F) {
	type family struct {
		kind    circuits.ModuleKind
		reverse bool
		ptp     func(seed int64) *stl.PTP
	}
	families := []family{
		{circuits.ModuleDU, false, func(s int64) *stl.PTP { return ptpgen.IMM(16, s) }},
		{circuits.ModuleDU, false, func(s int64) *stl.PTP { return ptpgen.MEM(16, s) }},
		{circuits.ModuleDU, false, func(s int64) *stl.PTP { return ptpgen.CNTRL(4, s) }},
		{circuits.ModuleSP, false, func(s int64) *stl.PTP { p, _ := ptpgen.TPGEN(spPatterns(16, s), s); return p }},
		{circuits.ModuleSP, false, func(s int64) *stl.PTP { return ptpgen.RAND(12, s) }},
		{circuits.ModuleSFU, true, func(s int64) *stl.PTP { p, _ := ptpgen.SFUIMM(sfuPatterns(16, s), s); return p }},
	}
	mods := map[circuits.ModuleKind]*circuits.Module{}
	faults := map[circuits.ModuleKind][]fault.Fault{}
	for _, fam := range families {
		if mods[fam.kind] == nil {
			mods[fam.kind] = module(f, fam.kind)
			faults[fam.kind] = sampledFaults(f, mods[fam.kind], 1200, 5)
		}
	}
	for i := range families {
		f.Add(uint8(i), int64(i+1), uint8(40), uint8(50))
	}
	f.Add(uint8(0), int64(9), uint8(255), uint8(0))
	f.Add(uint8(4), int64(10), uint8(0), uint8(255))

	f.Fuzz(func(t *testing.T, which uint8, seed int64, removePct, dropPct uint8) {
		fam := families[int(which)%len(families)]
		r := rand.New(rand.NewSource(seed))
		m, fs := mods[fam.kind], faults[fam.kind]
		p := fam.ptp(seed)
		sub := New(gpu.DefaultConfig(), m, fs, Options{ReversePatterns: fam.reverse, Workers: 1})
		ref := New(gpu.DefaultConfig(), m, fs, Options{ReversePatterns: fam.reverse, Workers: 1})
		var pre []fault.ID
		for id := range fs {
			if r.Intn(256) < int(dropPct) {
				pre = append(pre, fault.ID(id))
			}
		}
		for _, c := range []*Compactor{sub, ref} {
			if err := c.Campaign.RestoreDetected(pre); err != nil {
				t.Fatal(err)
			}
		}

		ctx := context.Background()
		sbs, candidates, err := sub.partition(p)
		if err != nil {
			t.Fatal(err)
		}
		col, _, err := sub.runTrace(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		origFC, origDet, origRep, err := sub.evaluateFC(ctx, p, col.Patterns, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sub.dropFaults(ctx, p, col.Patterns, origDet)
		if err != nil {
			t.Fatal(err)
		}
		refFC, refDet, err := ref.fullFC(ctx, col.Patterns)
		if err != nil {
			t.Fatal(err)
		}
		refRep, err := ref.fullStage3(ctx, col.Patterns)
		if err != nil {
			t.Fatal(err)
		}
		if origFC != refFC || !reflect.DeepEqual(origDet, refDet) {
			t.Fatalf("OrigDetected: %d faults, full simulation %d", len(origDet), len(refDet))
		}
		if !reflect.DeepEqual(rep.Detections, refRep.Detections) ||
			!reflect.DeepEqual(rep.DetectedPerPattern, refRep.DetectedPerPattern) {
			t.Fatalf("stage-3 FSR: %d detections, full simulation %d",
				len(rep.Detections), len(refRep.Detections))
		}
		if !reflect.DeepEqual(detections(len(p.Prog), rep, col.CCToPC()), detections(len(p.Prog), refRep, col.CCToPC())) {
			t.Fatal("labels differ")
		}
		if !reflect.DeepEqual(sub.Campaign.DetectedIDs(), ref.Campaign.DetectedIDs()) {
			t.Fatal("shared campaigns differ after stage 3")
		}

		var removed []int
		for i, sb := range sbs {
			if candidates[i] && r.Intn(256) < int(removePct) {
				for pc := sb.Start; pc < sb.End; pc++ {
					removed = append(removed, pc)
				}
			}
		}
		comp, err := Reassemble(p, sbs, removed)
		if err != nil {
			t.Fatal(err)
		}
		compCol, _, err := sub.runTrace(ctx, comp, col)
		if err != nil {
			t.Fatal(err)
		}
		compFC, compDet, _, err := sub.evaluateFC(ctx, comp, compCol.Patterns, origRep)
		if err != nil {
			t.Fatal(err)
		}
		refCompFC, refCompDet, err := ref.fullFC(ctx, compCol.Patterns)
		if err != nil {
			t.Fatal(err)
		}
		if compFC != refCompFC || !reflect.DeepEqual(compDet, refCompDet) {
			t.Fatalf("CompDetected: %d faults, full simulation %d", len(compDet), len(refCompDet))
		}
	})
}

// TestFaultGaugesReadSharedCampaign checks that the coverage gauges
// describe the shared campaign after each PTP, not the last scratch
// campaign a run used, in process and through a dist coordinator, and
// that every PTP still counts three fault-simulation runs.
func TestFaultGaugesReadSharedCampaign(t *testing.T) {
	m := module(t, circuits.ModuleDU)
	faults := sampledFaults(t, m, 2000, 45)
	for _, distributed := range []bool{false, true} {
		reg := obs.NewRegistry()
		opt := Options{Metrics: reg}
		if distributed {
			co, err := dist.New(dist.Options{Shards: 2, Seed: 1, HeartbeatInterval: 50 * time.Millisecond, Metrics: reg},
				dist.NewLocal("w1"), dist.NewLocal("w2"))
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			opt.Simulator = co
		}
		c := New(gpu.DefaultConfig(), m, faults, opt)
		for i, p := range []*stl.PTP{ptpgen.IMM(30, 46), ptpgen.MEM(30, 47)} {
			if _, err := c.CompactPTP(p); err != nil {
				t.Fatal(err)
			}
			if got, want := reg.Gauge("gpustl_fault_remaining").Value(), float64(c.Campaign.Remaining()); got != want {
				t.Errorf("distributed=%v %s: gpustl_fault_remaining = %v, campaign has %v", distributed, p.Name, got, want)
			}
			if got, want := reg.Gauge("gpustl_fault_coverage_pct").Value(), c.Campaign.Coverage(); got != want {
				t.Errorf("distributed=%v %s: gpustl_fault_coverage_pct = %v, campaign has %v", distributed, p.Name, got, want)
			}
			if got, want := reg.Counter("gpustl_fault_runs_total").Value(), uint64(3*(i+1)); got != want {
				t.Errorf("distributed=%v %s: gpustl_fault_runs_total = %d, want %d", distributed, p.Name, got, want)
			}
		}
	}
}
