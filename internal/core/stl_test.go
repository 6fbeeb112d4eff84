package core

import (
	"testing"

	"gpustl/internal/ptpgen"
	"gpustl/internal/stl"
)

func TestNewModuleSetSkipsSequential(t *testing.T) {
	lib := &stl.STL{PTPs: []*stl.PTP{ptpgen.DIVG(3, 1, 65)}}
	// DIVG targets the DU module kind; build a set for it anyway and make
	// sure a sequential-only library degrades gracefully (DU is
	// combinational, so it IS included — exercise the path with no error).
	ms, err := NewModuleSet(lib, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Modules) != 1 {
		t.Fatalf("modules = %d", len(ms.Modules))
	}
}
