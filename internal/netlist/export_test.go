package netlist

import (
	"math/rand"
	"testing"
)

// AssertWidthsAgree exports assertWidthsAgree to the external tests,
// which hold the module netlists of package circuits.
func AssertWidthsAgree(t *testing.T, nl *Netlist, r *rand.Rand, widths []int) {
	t.Helper()
	assertWidthsAgree(t, nl, r, widths)
}
