package core

import (
	"runtime"
	"testing"

	"gpustl/internal/circuits"
	"gpustl/internal/gpu"
	"gpustl/internal/ptpgen"
)

func TestWorkersOptionDeterminism(t *testing.T) {
	m := module(t, circuits.ModuleSP)
	faults := sampledFaults(t, m, 4000, 24)
	p := ptpgen.RAND(40, 25)

	serial, err := New(gpu.DefaultConfig(), m, faults, Options{}).CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(gpu.DefaultConfig(), m, faults,
		Options{Workers: runtime.GOMAXPROCS(0)}).CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}
	if serial.CompSize != par.CompSize || serial.OrigFC != par.OrigFC || serial.CompFC != par.CompFC {
		t.Fatalf("workers changed the outcome: %+v vs %+v", serial, par)
	}
	for i := range serial.Compacted.Prog {
		if serial.Compacted.Prog[i] != par.Compacted.Prog[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}
