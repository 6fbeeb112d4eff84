//go:build !amd64 || purego

package netlist

// haveAVX2 is false: this build has no assembly kernels, so every
// width runs the generic evalStemCode and evalPlanCode.
const haveAVX2 = false

// runStemCode runs compiled cone code at width w.
func runStemCode(gf []uint64, code []int32, dst, w int) { evalStemCode(gf, code, dst, w) }

// runPlanCode runs plan code at width w > 1.
func runPlanCode(good []uint64, code []int32, w int) { evalPlanCode(good, code, w) }
