//go:build amd64 && !purego

package netlist

// haveAVX2 reports whether stem-cone and plan code at W=16 run on the
// AVX2 kernels. It is fixed once per process from the CPU's feature
// bits.
var haveAVX2 = cpuAVX2()

// cpuAVX2 reports whether the CPU has AVX2 (CPUID leaf 7, EBX bit 5)
// and the operating system saves the YMM registers (OSXSAVE and AVX in
// leaf 1, the SSE and AVX state bits in XCR0).
func cpuAVX2() bool

// evalStemCodeAVX2 is evalStemCode at W=16: each op loads its operand
// rows as four 256-bit words, combines them and stores four words. It
// reads the run headers itself, so one call runs a whole cone. It does
// no bounds checks: code must have passed checkStemCode for the netlist
// whose combined buffer gf is, with dst the start of faulty slot 1.
//
//go:noescape
func evalStemCodeAVX2(gf []uint64, code []int32, dst int)

// evalPlanCodeAVX2 is evalPlanCode at W=16, with evalStemCodeAVX2's
// loads, ops and stores; each op stores to its own destination row. One
// call runs the whole sweep. It does no bounds checks: code must have
// passed checkPlanCode for the netlist whose good rows good holds.
//
//go:noescape
func evalPlanCodeAVX2(good []uint64, code []int32)

// runStemCode runs compiled cone code at width w on the fastest kernel
// this process has.
func runStemCode(gf []uint64, code []int32, dst, w int) {
	if w == 16 && haveAVX2 {
		evalStemCodeAVX2(gf, code, dst)
		return
	}
	evalStemCode(gf, code, dst, w)
}

// runPlanCode runs plan code at width w > 1 on the fastest kernel this
// process has.
func runPlanCode(good []uint64, code []int32, w int) {
	if w == 16 && haveAVX2 {
		evalPlanCodeAVX2(good, code)
		return
	}
	evalPlanCode(good, code, w)
}
