package ptpgen

import (
	"gpustl/internal/circuits"
	"gpustl/internal/isa"
	"gpustl/internal/stl"
)

// patchBranch resolves a placeholder branch displacement to targetPC.
func (e *emitter) patchBranch(idx, targetPC int) {
	e.prog[idx].Imm = int32(targetPC - (idx + 1))
}

// protectOne marks a single instruction as protected.
func (e *emitter) protectOne(idx int) {
	e.prot = append(e.prot, stl.Region{Start: idx, End: idx + 1})
}

// cntrlPlainSB emits a short admissible SB (the CNTRL PTP mixes immediate,
// memory and register instructions between control constructs).
func (e *emitter) cntrlPlainSB() {
	r := e.rng
	e.beginSB()
	e.mvi(regT0, randImm(r))
	e.mvi(regT1, randImm(r))
	n := 3 + r.Intn(3)
	srcs := []uint8{regT0, regT1, regT2}
	for i := 0; i < n; i++ {
		e.emitRandALUOp(uint8(regT2+r.Intn(2)), srcs)
	}
	e.fold(regT2)
	e.sigStore()
	e.endSB()
}

// cntrlIfElse emits a divergent if/else: the condition/branch scaffolding
// is protected (removing it would break the devised control test), the two
// arms are admissible SBs. Conditions alternate between the lane id
// (within-warp divergence) and the raw thread id (whole warps take
// different arms), exercising both divergence modes of the SM.
func (e *emitter) cntrlIfElse(threads int) {
	r := e.rng

	var pLane, pSet int
	if r.Intn(2) == 0 {
		// Within-warp divergence on the lane id.
		k := int32(1 + r.Intn(30))
		pLane = e.op(isa.OpANDI, regT5, regTID, 0)
		e.prog[pLane].Imm = 31
		pSet = e.emit(isa.Instruction{Op: isa.OpISETI, Rd: regT4, Ra: regT5,
			Imm: k, Cond: isa.CondLT, Pd: 0})
	} else {
		// Warp-level (and at the boundary, within-warp) divergence on tid.
		k := int32(1 + r.Intn(threads-1))
		pLane = e.op(isa.OpMOV, regT5, regTID, 0)
		pSet = e.emit(isa.Instruction{Op: isa.OpISETI, Rd: regT4, Ra: regT5,
			Imm: k, Cond: isa.CondLT, Pd: 0})
	}
	pSSY := e.emit(isa.Instruction{Op: isa.OpSSY})
	pBra := e.emitGuarded(isa.Instruction{Op: isa.OpBRA, Pg: 0, PSense: true})
	e.protectOne(pLane)
	e.protectOne(pSet)

	// Then-arm (taken when lane >= k: branch jumps when P0 true).
	e.cntrlPlainSB()
	pJmp := e.emit(isa.Instruction{Op: isa.OpBRA})

	elseStart := len(e.prog)
	e.cntrlPlainSB()
	endif := len(e.prog)

	e.patchBranch(pSSY, endif)
	e.patchBranch(pBra, elseStart)
	e.patchBranch(pJmp, endif)
}

// cntrlLoop emits a parametric loop whose trip count is computed at run
// time from the thread id — the inadmissible-region case of stage 1.
func (e *emitter) cntrlLoop() {
	r := e.rng
	h0 := e.op(isa.OpANDI, regTrip, regTID, 0)
	e.prog[h0].Imm = 7
	e.opi(isa.OpIADDI, regTrip, regTrip, 1)
	e.mvi(regLoop, 0)
	pSSY := e.emit(isa.Instruction{Op: isa.OpSSY})
	e.prot = append(e.prot, stl.Region{Start: h0, End: len(e.prog)})

	loopStart := len(e.prog)
	n := 2 + r.Intn(3)
	srcs := []uint8{regT0, regT1, regLoop}
	for i := 0; i < n; i++ {
		e.emitRandALUOp(uint8(regT0+r.Intn(2)), srcs)
	}
	e.fold(regT0)
	e.opi(isa.OpIADDI, regLoop, regLoop, 1)
	e.emit(isa.Instruction{Op: isa.OpISET, Rd: regT4, Ra: regLoop, Rb: regTrip,
		Cond: isa.CondLT, Pd: 0})
	pBack := e.emitGuarded(isa.Instruction{Op: isa.OpBRA, Pg: 0, PSense: true})
	e.patchBranch(pBack, loopStart)
	after := len(e.prog)
	e.patchBranch(pSSY, after)
	e.sigStore()
}

// CNTRL generates the control-oriented DU PTP: 1 block × 1024 threads,
// mixing plain SBs, divergent if/else constructs and parametric loops.
// sections controls the scale (the paper's CNTRL has 336 instructions).
func CNTRL(sections int, seed int64) *stl.PTP {
	return CNTRLThreads(sections, 1024, seed)
}

// DU is the Decoder Unit library stlcompact and stlserver generate
// from one size and seed: IMM and MEM with n SBs each and CNTRL with
// max(2, n/10) sections, seeded seed+1, seed+2 and seed+3.
func DU(n int, seed int64) []*stl.PTP {
	return []*stl.PTP{IMM(n, seed+1), MEM(n, seed+2), CNTRL(max(2, n/10), seed+3)}
}

// CNTRLThreads is CNTRL with a configurable block size; the STL's
// non-candidate remainder uses smaller blocks.
func CNTRLThreads(sections, threads int, seed int64) *stl.PTP {
	e := newEmitter(seed)
	e.prologue(0xC0FFEE03)
	for i := 0; i < sections; i++ {
		switch i % 5 {
		case 0, 2:
			e.cntrlPlainSB()
		case 1, 3:
			e.cntrlIfElse(threads)
		default:
			e.cntrlLoop()
		}
	}
	e.epilogue()
	return e.finish("CNTRL", circuits.ModuleDU,
		stl.KernelConfig{Blocks: 1, ThreadsPerBlock: threads})
}
