package netlist_test

import (
	"math/rand"
	"testing"

	"gpustl/internal/circuits"
	"gpustl/internal/netlist"
)

// TestSweepWidthsAgree sweeps every module netlist on random inputs at
// W = 4, 8 and 16 and holds each net's good row, sources and constants
// included, to the W=1 sweep's bit for bit: W=16 runs the AVX2 kernel
// where the host has it, the other widths the generic loop. Between
// them the modules hold MUX gates and CONST1 rows, which the test
// asserts so that both stay covered.
func TestSweepWidthsAgree(t *testing.T) {
	kinds := map[netlist.Kind]int{}
	for i, build := range []func() (*netlist.Netlist, error){
		circuits.BuildDU, circuits.BuildSP, circuits.BuildSFU, circuits.BuildFP32,
	} {
		nl, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range nl.Gates {
			kinds[g.Kind]++
		}
		netlist.AssertWidthsAgree(t, nl, rand.New(rand.NewSource(int64(97+i))), []int{4, 8, 16})
	}
	for _, k := range []netlist.Kind{netlist.KConst1, netlist.KMux} {
		if kinds[k] == 0 {
			t.Errorf("no module netlist has a %v gate", k)
		}
	}
}
