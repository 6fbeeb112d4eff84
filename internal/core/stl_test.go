package core

import (
	"testing"

	"gpustl/internal/circuits"
	"gpustl/internal/ptpgen"
	"gpustl/internal/stl"
)

// TestNewModuleSet checks that a library gets one module and one sampled
// fault list per distinct target.
func TestNewModuleSet(t *testing.T) {
	lib := &stl.STL{PTPs: []*stl.PTP{ptpgen.DIVG(3, 1, 65), ptpgen.IMM(5, 1), ptpgen.RAND(2, 3)}}
	ms, err := NewModuleSet(lib, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Modules) != 2 || len(ms.Faults) != 2 {
		t.Fatalf("modules = %d, fault lists = %d, want 2 each", len(ms.Modules), len(ms.Faults))
	}
	for _, k := range []circuits.ModuleKind{circuits.ModuleDU, circuits.ModuleSP} {
		if m := ms.Modules[k]; m == nil || m.Kind != k {
			t.Fatalf("%v: module %+v", k, m)
		}
		if n := len(ms.Faults[k]); n != 500 {
			t.Errorf("%v: %d faults, want the 500 sampled", k, n)
		}
	}
}
