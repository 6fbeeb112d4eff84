package core

import (
	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/stl"
)

// ModuleSet supplies the gate-level modules and fault lists per target
// module kind for an STL-wide compaction.
type ModuleSet struct {
	Modules map[circuits.ModuleKind]*circuits.Module
	Faults  map[circuits.ModuleKind][]fault.Fault
}

// NewModuleSet builds the modules and (optionally sampled) fault lists
// for the module kinds the STL targets.
func NewModuleSet(lib *stl.STL, sample int, seed int64) (*ModuleSet, error) {
	ms := &ModuleSet{
		Modules: map[circuits.ModuleKind]*circuits.Module{},
		Faults:  map[circuits.ModuleKind][]fault.Fault{},
	}
	for _, p := range lib.PTPs {
		if _, ok := ms.Modules[p.Target]; ok {
			continue
		}
		m, err := circuits.Build(p.Target, 0)
		if err != nil {
			return nil, err
		}
		ms.Modules[p.Target] = m
		c := fault.NewCampaign(m)
		if sample > 0 {
			c.SampleFaults(sample, seed)
		}
		ms.Faults[p.Target] = c.Faults()
	}
	return ms, nil
}
