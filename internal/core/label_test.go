package core

import (
	"context"
	"testing"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/ptpgen"
	"gpustl/internal/trace"
)

// TestLabelDetailedAgreesWithLabel holds LabelDetailed to the
// pipeline's labeling join: per instruction, the per-warp hits sum to
// its detections, and it is essential when they are nonzero.
func TestLabelDetailedAgreesWithLabel(t *testing.T) {
	m := module(t, circuits.ModuleDU)
	p := ptpgen.IMM(30, 3)

	col := trace.NewCollector(circuits.ModuleDU)
	g, err := gpu.New(gpu.DefaultConfig(), col)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(gpu.Kernel{
		Prog: p.Prog, Blocks: 1, ThreadsPerBlock: 32,
		GlobalBase: p.Data.Base, GlobalData: p.Data.Words,
	}); err != nil {
		t.Fatal(err)
	}

	camp := fault.NewCampaignWithFaults(m, sampledFaults(t, m, 2000, 1))
	rep, err := camp.SimulateCtx(context.Background(), col.Patterns, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}

	idx := col.CCToPC()
	det := detections(len(p.Prog), rep, idx)
	detail := LabelDetailed(len(p.Prog), rep, idx)

	for pc := range det {
		hits := 0
		for _, n := range detail.WarpHits[pc] {
			hits += n
		}
		if int(det[pc]) != hits || (det[pc] > 0) != detail.Essential[pc] {
			t.Fatalf("pc %d: %d detections; LabelDetailed: %d hits, essential %v",
				pc, det[pc], hits, detail.Essential[pc])
		}
	}
	if detail.UnmatchedCCs != 0 {
		t.Errorf("unmatched ccs: %d", detail.UnmatchedCCs)
	}
	if detail.Detections != rep.DetectedThisRun() {
		t.Errorf("attributed %d of %d detections", detail.Detections, rep.DetectedThisRun())
	}
	if detail.EssentialCount() == 0 {
		t.Error("nothing essential")
	}
	// A single-warp kernel: all attributions must be warp 0.
	for pc := range detail.Essential {
		for _, w := range detail.Warps(pc) {
			if w != 0 {
				t.Fatalf("pc %d attributed to warp %d in a 1-warp kernel", pc, w)
			}
		}
	}
	t.Logf("%s", detail)
}

func TestLabelDetailedMultiWarp(t *testing.T) {
	m := module(t, circuits.ModuleDU)
	p := ptpgen.CNTRL(8, 4) // 1024 threads = 32 warps

	col := trace.NewCollector(circuits.ModuleDU)
	g, err := gpu.New(gpu.DefaultConfig(), col)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(gpu.Kernel{
		Prog: p.Prog, Blocks: 1, ThreadsPerBlock: 1024,
	}); err != nil {
		t.Fatal(err)
	}
	camp := fault.NewCampaignWithFaults(m, sampledFaults(t, m, 2000, 2))
	rep, err := camp.SimulateCtx(context.Background(), col.Patterns, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	detail := LabelDetailed(len(p.Prog), rep, col.CCToPC())

	// At least one instruction must have been made essential by a warp
	// other than warp 0 (warp-level attribution really varies).
	other := false
	for pc := range detail.Essential {
		for _, w := range detail.Warps(pc) {
			if w != 0 {
				other = true
			}
		}
	}
	if !other {
		t.Error("no attribution beyond warp 0 in a 32-warp kernel")
	}
}
