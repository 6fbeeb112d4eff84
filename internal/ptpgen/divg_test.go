package ptpgen

import (
	"testing"

	"gpustl/internal/gpu"
	"gpustl/internal/signature"
)

// TestDIVGSignatures runs the divergence-stack PTP and checks every
// thread's stored signature against the software-predicted value of its
// unique path through the nested divergence — the strongest end-to-end
// check of the SIMT stack machinery.
func TestDIVGSignatures(t *testing.T) {
	for _, depth := range []int{1, 2, 3, 4, 5} {
		const repeats = 3
		p := DIVG(depth, repeats, 1)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		g, err := gpu.New(gpu.DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Run(gpu.Kernel{
			Prog: p.Prog, Blocks: p.Kernel.Blocks,
			ThreadsPerBlock: p.Kernel.ThreadsPerBlock,
		})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		leavesPerRepeat := 1 << uint(depth)
		for tid := 0; tid < 32; tid++ {
			// Prologue: sig = seed ^ tid; one leaf fold per repeat.
			sig := uint32(0xC0FFEE08) ^ uint32(tid)
			leaf := DivgExpectedLeaf(tid, depth)
			for rep := 0; rep < repeats; rep++ {
				sig = signature.Fold(sig, DivgLeafConst(rep*leavesPerRepeat+leaf))
			}
			got := res.Global.Word(int(SigBase+4*uint32(tid)) / 4)
			if got != sig {
				t.Fatalf("depth %d thread %d: signature %#x, want %#x",
					depth, tid, got, sig)
			}
		}
	}
}

// TestDIVGFullyProtected checks the PTP exposes no compaction candidates.
func TestDIVGFullyProtected(t *testing.T) {
	p := DIVG(3, 2, 2)
	if len(p.SBs) != 0 {
		t.Errorf("DIVG has %d candidate SBs", len(p.SBs))
	}
	if len(p.ARCs()) != 0 {
		t.Errorf("DIVG exposes admissible regions: %+v", p.ARCs())
	}
}

// TestDIVGDepthClamp checks the depth limits.
func TestDIVGDepthClamp(t *testing.T) {
	if p := DIVG(0, 1, 3); len(p.Prog) == 0 {
		t.Error("depth 0 produced nothing")
	}
	if p := DIVG(99, 1, 3); len(p.Prog) == 0 {
		t.Error("clamped depth produced nothing")
	}
}
