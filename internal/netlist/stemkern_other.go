//go:build !amd64 || purego

package netlist

// haveStemKernel is false: this build has no assembly stem kernel, so
// every width runs the generic evalStemCode.
const haveStemKernel = false

// runStemCode runs compiled cone code at width w.
func runStemCode(gf []uint64, code []int32, dst, w int) { evalStemCode(gf, code, dst, w) }
