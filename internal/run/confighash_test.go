package run

import (
	"testing"

	"gpustl/internal/circuits"
	"gpustl/internal/core"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/ptpgen"
	"gpustl/internal/stl"
)

// TestConfigHashSensitivity: every input that determines a campaign's
// results — fault lists, PTPs, the deterministic compactor options and
// the FC tolerance — moves the config hash, and the engine knobs that
// do not (worker count, simulator backend) leave it alone.
func TestConfigHashSensitivity(t *testing.T) {
	cfg := gpu.DefaultConfig()
	build := func() (*stl.STL, *core.ModuleSet) {
		lib := &stl.STL{PTPs: []*stl.PTP{ptpgen.IMM(8, 1), ptpgen.RAND(8, 2)}}
		ms, err := core.NewModuleSet(lib, 400, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms.Modules) != 2 {
			t.Fatalf("module set has %d modules, want 2", len(ms.Modules))
		}
		return lib, ms
	}
	const fcTol = 5
	hash := func(lib *stl.STL, ms *core.ModuleSet, opt core.Options, tol float64) string {
		t.Helper()
		h, err := ConfigHash(cfg, ms, lib, opt, tol)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	lib, ms := build()
	base := hash(lib, ms, core.Options{}, fcTol)

	du, sp := circuits.ModuleDU, circuits.ModuleSP
	changes := []struct {
		name string
		edit func(lib *stl.STL, ms *core.ModuleSet)
	}{
		{"two faults swap order", func(_ *stl.STL, ms *core.ModuleSet) {
			f := ms.Faults[du]
			f[0], f[1] = f[1], f[0]
		}},
		{"a fault's SA1 flips", func(_ *stl.STL, ms *core.ModuleSet) {
			ms.Faults[du][3].Site.SA1 = !ms.Faults[du][3].Site.SA1
		}},
		{"a fault's lane changes", func(_ *stl.STL, ms *core.ModuleSet) {
			ms.Faults[sp][3].Lane++
		}},
		{"a fault moves to another module", func(_ *stl.STL, ms *core.ModuleSet) {
			f := ms.Faults[du][len(ms.Faults[du])-1]
			ms.Faults[du] = ms.Faults[du][:len(ms.Faults[du])-1]
			ms.Faults[sp] = append([]fault.Fault{f}, ms.Faults[sp]...)
		}},
		{"a PTP is renamed with a colon", func(lib *stl.STL, _ *core.ModuleSet) {
			lib.PTPs[0].Name += ":x"
		}},
		{"a PTP is renamed with a newline", func(lib *stl.STL, _ *core.ModuleSet) {
			lib.PTPs[0].Name += "\nptp:x"
		}},
	}
	for _, c := range changes {
		lib, ms := build()
		c.edit(lib, ms)
		if hash(lib, ms, core.Options{}, fcTol) == base {
			t.Errorf("config hash unchanged when %s", c.name)
		}
	}

	options := []struct {
		name  string
		opt   core.Options
		fcTol float64
	}{
		{"ReversePatterns is set", core.Options{ReversePatterns: true}, fcTol},
		{"InstructionGranularity is set", core.Options{InstructionGranularity: true}, fcTol},
		{"the FC tolerance drops to 0", core.Options{}, 0},
		{"the FC tolerance rises to 100", core.Options{}, 100},
		{"the FC tolerance moves by a hundredth", core.Options{}, fcTol + 0.01},
	}
	for _, c := range options {
		if hash(lib, ms, c.opt, c.fcTol) == base {
			t.Errorf("config hash unchanged when %s", c.name)
		}
	}

	for _, opt := range []core.Options{{Workers: 7}, {Simulator: overloadedSim{}}} {
		if h := hash(lib, ms, opt, fcTol); h != base {
			t.Errorf("config hash moved with engine options %+v", opt)
		}
	}
}
