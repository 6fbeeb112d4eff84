package trace

import (
	"strings"
	"testing"

	"gpustl/internal/asm"
	"gpustl/internal/circuits"
	"gpustl/internal/gpu"
	"gpustl/internal/isa"
)

func TestOpStats(t *testing.T) {
	prog, err := asm.Assemble(`
		S2R  R0, SR_TID
		SHLI R1, R0, 2
		IADD R2, R0, R0
		IADD R3, R2, R0
		SIN  R4, R3
		GST  [R1+0], R4
		EXIT
	`)
	if err != nil {
		t.Fatal(err)
	}
	stats := &OpStats{}
	g, _ := gpu.New(gpu.DefaultConfig(), stats)
	if _, err := g.Run(gpu.Kernel{Prog: prog, Blocks: 1, ThreadsPerBlock: 64}); err != nil {
		t.Fatal(err)
	}
	// Two warps: each decodes IADD twice.
	if stats.Decodes[isa.OpIADD] != 4 {
		t.Errorf("IADD decodes = %d, want 4", stats.Decodes[isa.OpIADD])
	}
	if stats.ThreadOps[isa.OpIADD] != 2*64 {
		t.Errorf("IADD thread-ops = %d, want 128", stats.ThreadOps[isa.OpIADD])
	}
	if stats.ThreadOps[isa.OpSIN] != 64 || stats.Stores != 64 {
		t.Errorf("SIN=%d stores=%d", stats.ThreadOps[isa.OpSIN], stats.Stores)
	}
	if stats.DistinctOpcodes() != 6 {
		t.Errorf("distinct = %d, want 6", stats.DistinctOpcodes())
	}
	if !strings.Contains(stats.String(), "IADD") {
		t.Error("String() missing opcode rows")
	}
}

func TestTeeDeliversToAll(t *testing.T) {
	prog, err := asm.Assemble("MVI R1, 1\nGST [R0+0], R1\nEXIT")
	if err != nil {
		t.Fatal(err)
	}
	stats := &OpStats{}
	col := NewCollector(circuits.ModuleDU)
	g, _ := gpu.New(gpu.DefaultConfig(), NewTee(stats, col))
	if _, err := g.Run(gpu.Kernel{Prog: prog, Blocks: 1, ThreadsPerBlock: 32}); err != nil {
		t.Fatal(err)
	}
	if stats.TotalDecodes() != 3 {
		t.Errorf("stats decodes = %d", stats.TotalDecodes())
	}
	if rows := Rows(col.Spans, prog); len(col.Patterns) != 3 || len(rows) != 3 {
		t.Errorf("collector got %d patterns, %d rows", len(col.Patterns), len(rows))
	}
}
