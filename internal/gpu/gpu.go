// Package gpu implements a functional, cycle-accounted simulator of a
// FlexGripPlus-like GPU Streaming Multiprocessor (SM).
//
// The model follows the organization of FlexGripPlus (an open-source GPU
// compatible with the NVIDIA G80 architecture): a single SM executing one
// warp instruction at a time through five stages (fetch, decode, read,
// execute, write), with a configurable number of SP lanes (8, 16 or 32),
// two SFU lanes, a SIMT divergence stack, a general-purpose register file,
// and global / shared / constant memories.
//
// The simulator is *functional* — instruction semantics are computed in Go —
// but every stage advances a clock-cycle counter using a calibrated timing
// model, and a Monitor receives per-cycle events (fetched words, decoded
// instructions, each SP pass's operand rows). Those events are exactly the
// tracing information the compaction method of the paper extracts from its
// RTL and gate-level logic simulations.
package gpu

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"gpustl/internal/isa"
)

// WarpSize is the number of threads in a warp, as in the G80 architecture.
const WarpSize = 32

// Space identifies a memory space for monitor events.
type Space uint8

// Memory spaces.
const (
	SpaceGlobal Space = iota
	SpaceShared
	SpaceConstant
)

// String returns the space name.
func (s Space) String() string {
	switch s {
	case SpaceGlobal:
		return "global"
	case SpaceShared:
		return "shared"
	case SpaceConstant:
		return "constant"
	}
	return fmt.Sprintf("Space(%d)", uint8(s))
}

// Timing holds the per-stage clock-cycle costs of the SM pipeline. The SM
// processes one warp instruction at a time (as FlexGripPlus does), so an
// instruction's duration is the sum of its stage costs; execute-stage cost
// is per sub-warp pass (WarpSize/NumSPs passes for SP-class work,
// WarpSize/NumSFUs for SFU work).
type Timing struct {
	Fetch  int // fetch stage cycles
	Decode int // decode stage cycles
	Read   int // operand read cycles
	Write  int // write-back cycles

	ALUPass int // integer SP pass cycles
	FPUPass int // floating-point SP pass cycles
	SFUPass int // SFU pass cycles
	MemPass int // memory pass cycles (latency to the memory subsystem)

	CtrlExec int // execute cycles of control instructions (whole warp)
}

// DefaultTiming is calibrated so that, with 8 SP lanes and one 32-thread
// warp, an ALU instruction costs ~65 cc, a memory instruction ~97 cc and an
// SFU instruction ~69 cc — matching the cc-per-instruction ratios implied by
// Table I of the paper.
var DefaultTiming = Timing{
	Fetch:  4,
	Decode: 4,
	Read:   8,
	Write:  5,

	ALUPass:  11,
	FPUPass:  11,
	SFUPass:  3,
	MemPass:  19,
	CtrlExec: 24,
}

// Config describes the simulated GPU.
type Config struct {
	NumSMs  int // streaming multiprocessors (0 = 1); blocks round-robin
	NumSPs  int // SP lanes per SM: 8, 16 or 32 (FlexGripPlus options)
	NumSFUs int // SFU lanes per SM (FlexGripPlus has 2)

	GlobalWords   int // global memory size in 32-bit words
	SharedWords   int // shared memory words per block
	ConstantWords int // constant memory words

	Timing Timing

	// MaxCycles aborts runaway kernels (0 = default limit).
	MaxCycles uint64
	// StackDepth caps the SIMT divergence stack (FlexGripPlus stores it in
	// a dedicated memory). 0 = default (32).
	StackDepth int
}

// DefaultConfig returns the configuration used throughout the paper's
// experiments: one SM with 8 SP cores and 2 SFUs.
func DefaultConfig() Config {
	return Config{
		NumSPs:        8,
		NumSFUs:       2,
		GlobalWords:   1 << 20, // 4 MiB
		SharedWords:   1 << 12, // 16 KiB
		ConstantWords: 1 << 14, // 64 KiB
		Timing:        DefaultTiming,
	}
}

func (c *Config) validate() error {
	if c.NumSMs < 0 {
		return errors.New("gpu: NumSMs must be non-negative")
	}
	switch c.NumSPs {
	case 8, 16, 32:
	default:
		return fmt.Errorf("gpu: NumSPs must be 8, 16 or 32; got %d", c.NumSPs)
	}
	if c.NumSFUs <= 0 || WarpSize%c.NumSFUs != 0 {
		return fmt.Errorf("gpu: NumSFUs must divide %d; got %d", WarpSize, c.NumSFUs)
	}
	if c.GlobalWords <= 0 || c.SharedWords <= 0 || c.ConstantWords <= 0 {
		return errors.New("gpu: memory sizes must be positive")
	}
	return nil
}

// Kernel is a parallel program plus its launch configuration, mirroring a
// CUDA kernel launched on FlexGripPlus.
type Kernel struct {
	Prog            []isa.Instruction
	Blocks          int // grid size in blocks (executed sequentially on 1 SM)
	ThreadsPerBlock int // must be a multiple of WarpSize

	// GlobalInit seeds global memory: word index -> value.
	GlobalBase uint32   // word-aligned byte address of the data segment
	GlobalData []uint32 // initial contents at GlobalBase
	// ConstantData seeds constant memory from word 0.
	ConstantData []uint32
}

// Monitor observes the execution. Implementations must not mutate the
// simulator. All callbacks carry the current clock cycle. A nil Monitor
// disables tracing.
type Monitor interface {
	// Fetch fires once per warp instruction with the raw 64-bit word — the
	// input pattern seen by the Decoder Unit.
	Fetch(cc uint64, warp, pc int, word isa.Word)
	// Decode fires after the decode stage with the decoded instruction.
	Decode(cc uint64, warp, pc int, in isa.Instruction)
	// ALUPass fires once per SP pass of an ALU/FPU-class instruction that
	// has at least one active thread in it. SP lane l of the pass executes
	// thread thread0+l; bit l of exec says whether it is active, and a[l],
	// b[l], c[l] are its operand tuple. The rows are the simulator's
	// scratch: they are valid only during the call and must be neither
	// kept nor written.
	ALUPass(cc uint64, warp, pc int, op isa.Opcode, thread0 int, exec uint32, a, b, c []uint32)
	// SFUOp fires once per active thread of an SFU-class instruction.
	SFUOp(cc uint64, warp, pc, lane, thread int, op isa.Opcode, a uint32)
	// Store fires for every architecturally visible write (GST/SST) — the
	// observable points of the PTP.
	Store(cc uint64, warp, pc, thread int, space Space, addr, value uint32)
	// Retire fires when the instruction completes write-back; ccEnd is the
	// last cycle the instruction occupies.
	Retire(ccStart, ccEnd uint64, warp, pc int)
}

// NopMonitor is a Monitor with empty callbacks, for embedding.
type NopMonitor struct{}

func (NopMonitor) Fetch(uint64, int, int, isa.Word)                                                {}
func (NopMonitor) Decode(uint64, int, int, isa.Instruction)                                        {}
func (NopMonitor) ALUPass(uint64, int, int, isa.Opcode, int, uint32, []uint32, []uint32, []uint32) {}
func (NopMonitor) SFUOp(uint64, int, int, int, int, isa.Opcode, uint32)                            {}
func (NopMonitor) Store(uint64, int, int, int, Space, uint32, uint32)                              {}
func (NopMonitor) Retire(uint64, uint64, int, int)                                                 {}

var _ Monitor = NopMonitor{}

// Result summarizes a kernel run.
type Result struct {
	Cycles       uint64 // total clock cycles
	Instructions uint64 // dynamic warp-instructions executed
	Global       Memory // final global memory
}

// pageShift sets the size of one page of Memory: 1<<pageShift words
// (4 KiB).
const (
	pageShift = 10
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// Memory is a memory space of a fixed number of 32-bit words (global,
// constant, and each block's shared memory), held as a table of
// fixed-size pages that are allocated when first written. A kernel
// touches a few pages of the 4 MiB global space, so a run allocates and
// zeroes only those; a word of a page never written reads 0. Word
// indices wrap around at the memory's size, as the simulator's loads
// and stores do.
type Memory struct {
	words int
	pages []*[pageWords]uint32
}

func newMemory(words int) Memory {
	return Memory{words: words, pages: make([]*[pageWords]uint32, (words+pageMask)>>pageShift)}
}

// Word returns word i, modulo the memory's size.
func (m Memory) Word(i int) uint32 {
	if m.words == 0 {
		return 0
	}
	i %= m.words
	if p := m.pages[i>>pageShift]; p != nil {
		return p[i&pageMask]
	}
	return 0
}

// store writes word i, modulo the memory's size, allocating its page on
// first write.
func (m Memory) store(i int, v uint32) {
	i %= m.words
	p := m.pages[i>>pageShift]
	if p == nil {
		p = new([pageWords]uint32)
		m.pages[i>>pageShift] = p
	}
	p[i&pageMask] = v
}

// Image returns the whole memory as one flat slice of its size.
func (m Memory) Image() []uint32 {
	img := make([]uint32, m.words)
	for i, p := range m.pages {
		if p != nil {
			copy(img[i<<pageShift:], p[:])
		}
	}
	return img
}

// stackEntry is one SIMT reconvergence-stack record (Fung-style: the top of
// stack holds the executing PC and active mask; RPC is the reconvergence
// point at which the entry pops).
type stackEntry struct {
	pc   int
	rpc  int
	mask uint32
}

const noRPC = math.MaxInt32

// warpState is the per-warp architectural state.
type warpState struct {
	id    int
	stack []stackEntry // SIMT stack; top = current pc/mask
	calls []int        // return addresses (uniform CAL/RET)

	pendingRPC int // set by SSY, consumed by the next divergent branch

	// The register file is laid out by register, one row of WarpSize
	// lanes each, so an instruction reads and writes whole operand rows;
	// each predicate register is a lane mask.
	regs  [isa.NumGPR]row
	preds [isa.NumPred]uint32

	exited  uint32 // lanes permanently done
	atBar   bool   // parked at a barrier
	done    bool
	invalid uint32 // lanes beyond ThreadsPerBlock (none: tpb % WarpSize == 0)
}

func (w *warpState) top() *stackEntry { return &w.stack[len(w.stack)-1] }

// row holds one 32-bit value per thread of a warp.
type row = [WarpSize]uint32

// GPU is the simulator instance. Create with New, run kernels with Run.
type GPU struct {
	cfg Config
	mon Monitor

	global   Memory
	shared   Memory
	constant Memory

	cc     uint64
	dyn    uint64
	warps  []*warpState
	nwarps int
	block  int
	tpb    int

	// Cooperative cancellation for the current RunCtx call: the scheduler
	// polls ctx once every ctxPollRounds scheduling rounds.
	ctx       context.Context
	ctxRounds uint

	// Scratch rows of execALU: the immediate broadcast, an all-zero row
	// for operands an opcode does not read, and the result. They live
	// here rather than on the stack because the monitor receives slices
	// of them, which would make stack rows escape on every instruction.
	imm, zero, res row
}

// New creates a simulator. A nil monitor disables tracing; with several
// SMs the monitor observes SM 0 only, as the paper's hardware monitor is
// incorporated in one SM of the GPU.
func New(cfg Config, mon Monitor) (*GPU, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.NumSMs == 0 {
		cfg.NumSMs = 1
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 34
	}
	if cfg.StackDepth == 0 {
		cfg.StackDepth = 32
	}
	if mon == nil {
		mon = NopMonitor{}
	}
	return &GPU{cfg: cfg, mon: mon}, nil
}

// ErrLimit reports that a kernel exceeded the configured cycle budget.
var ErrLimit = errors.New("gpu: cycle limit exceeded")

// ErrStack reports SIMT divergence-stack overflow.
var ErrStack = errors.New("gpu: divergence stack overflow")

// ctxPollRounds is how many scheduling rounds pass between context
// checks in RunCtx — frequent enough to cancel within microseconds,
// rare enough to stay invisible in profiles.
const ctxPollRounds = 256

// Run executes the kernel to completion and returns the run summary,
// including the final global memory image.
func (g *GPU) Run(k Kernel) (Result, error) {
	return g.RunCtx(context.Background(), k)
}

// RunCtx is Run with cooperative cancellation: the warp scheduler polls
// ctx periodically and aborts the kernel with ctx.Err() when it is
// canceled or times out. Determinism is unaffected — a run that completes
// returns exactly what Run would.
func (g *GPU) RunCtx(ctx context.Context, k Kernel) (Result, error) {
	g.ctx = ctx
	g.ctxRounds = 0
	defer func() { g.ctx = nil }()
	if len(k.Prog) == 0 {
		return Result{}, errors.New("gpu: empty program")
	}
	if k.ThreadsPerBlock <= 0 || k.ThreadsPerBlock%WarpSize != 0 {
		return Result{}, fmt.Errorf("gpu: ThreadsPerBlock must be a positive multiple of %d", WarpSize)
	}
	if k.Blocks <= 0 {
		return Result{}, errors.New("gpu: Blocks must be positive")
	}

	g.global = newMemory(g.cfg.GlobalWords)
	g.constant = newMemory(g.cfg.ConstantWords)
	for i, v := range k.ConstantData[:min(len(k.ConstantData), g.cfg.ConstantWords)] {
		g.constant.store(i, v)
	}
	base := int(k.GlobalBase / 4)
	for i, v := range k.GlobalData {
		g.global.store(base+i, v)
	}
	g.cc = 0
	g.dyn = 0
	g.tpb = k.ThreadsPerBlock

	// Blocks are distributed round-robin over the SMs by the general
	// controller; each SM keeps its own clock. The hardware monitor
	// observes SM 0 only, as in the paper's tracing setup.
	smCC := make([]uint64, g.cfg.NumSMs)
	userMon := g.mon
	maxCC := func() uint64 {
		m := smCC[0]
		for _, c := range smCC[1:] {
			if c > m {
				m = c
			}
		}
		return m
	}
	for b := 0; b < k.Blocks; b++ {
		sm := b % g.cfg.NumSMs
		g.block = b
		g.cc = smCC[sm]
		if sm == 0 {
			g.mon = userMon
		} else {
			g.mon = NopMonitor{}
		}
		err := g.runBlock(k)
		smCC[sm] = g.cc
		if err != nil {
			g.mon = userMon
			return Result{Cycles: maxCC(), Instructions: g.dyn, Global: g.global}, err
		}
	}
	g.mon = userMon
	return Result{Cycles: maxCC(), Instructions: g.dyn, Global: g.global}, nil
}

func (g *GPU) runBlock(k Kernel) error {
	g.shared = newMemory(g.cfg.SharedWords)
	g.nwarps = k.ThreadsPerBlock / WarpSize
	g.warps = make([]*warpState, g.nwarps)
	for w := range g.warps {
		ws := &warpState{
			id:         w,
			stack:      []stackEntry{{pc: 0, rpc: noRPC, mask: 0xffffffff}},
			pendingRPC: noRPC,
		}
		g.warps[w] = ws
	}

	// FlexGripPlus dispatches warps one at a time; we round-robin among
	// runnable warps, executing one full instruction per scheduling slot.
	for {
		if g.ctxRounds++; g.ctxRounds%ctxPollRounds == 0 {
			if err := g.ctx.Err(); err != nil {
				return fmt.Errorf("gpu: kernel aborted: %w", err)
			}
		}
		ran := false
		allAtBar := true
		anyLive := false
		for _, w := range g.warps {
			if w.done {
				continue
			}
			anyLive = true
			if w.atBar {
				continue
			}
			allAtBar = false
			if err := g.step(k, w); err != nil {
				return err
			}
			ran = true
			if g.cc > g.cfg.MaxCycles {
				return fmt.Errorf("%w (%d cc)", ErrLimit, g.cc)
			}
		}
		if !anyLive {
			return nil
		}
		if !ran {
			if allAtBar {
				// Release the barrier.
				for _, w := range g.warps {
					w.atBar = false
				}
				continue
			}
			return errors.New("gpu: scheduler deadlock")
		}
	}
}

// step executes one instruction of warp w.
func (g *GPU) step(k Kernel, w *warpState) error {
	// Reconvergence / empty-mask maintenance before fetch.
	for len(w.stack) > 0 {
		t := w.top()
		if t.mask&^w.exited == 0 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if t.pc == t.rpc {
			// Reconverge: drop this entry; the next one holds the merged mask.
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		break
	}
	if len(w.stack) == 0 {
		w.done = true
		return nil
	}
	t := w.top()
	pc := t.pc
	active := t.mask &^ w.exited
	if pc < 0 || pc >= len(k.Prog) {
		// Falling off the program ends the warp (implicit EXIT).
		w.done = true
		return nil
	}

	in := k.Prog[pc]
	ccStart := g.cc
	tim := g.cfg.Timing

	// Fetch.
	g.mon.Fetch(g.cc, w.id, pc, isa.Encode(in))
	g.cc += uint64(tim.Fetch)

	// Decode.
	g.mon.Decode(g.cc, w.id, pc, in)
	g.cc += uint64(tim.Decode)

	// Guard predicate: mask off lanes where the guard fails.
	exec := active
	if in.Pg != isa.PredAlways {
		if in.PSense {
			exec &= w.preds[in.Pg]
		} else {
			exec &^= w.preds[in.Pg]
		}
	}

	// Operand read stage.
	g.cc += uint64(tim.Read)

	var err error
	switch isa.ClassOf(in.Op) {
	case isa.ClassALU, isa.ClassFPU:
		g.execALU(w, pc, in, exec)
	case isa.ClassSFU:
		g.execSFU(w, pc, in, exec)
	case isa.ClassMem:
		g.execMem(w, pc, in, exec)
	case isa.ClassCtrl:
		err = g.execCtrl(w, pc, in, exec, active)
	}
	if err != nil {
		return err
	}

	// Write-back.
	g.cc += uint64(tim.Write)
	g.dyn++
	g.mon.Retire(ccStart, g.cc-1, w.id, pc)
	return nil
}

// advancePC moves the warp past a non-branch instruction.
func advancePC(w *warpState) { w.top().pc++ }

// execALU executes an ALU/FPU-class instruction for the whole warp at
// once: the operand classes and the opcode are resolved once, every lane
// is evaluated over the operand rows, and the results are written back
// under the exec mask. The monitor sees one event per SP pass.
func (g *GPU) execALU(w *warpState, pc int, in isa.Instruction, exec uint32) {
	passLat := g.cfg.Timing.ALUPass
	if isa.ClassOf(in.Op) == isa.ClassFPU {
		passLat = g.cfg.Timing.FPUPass
	}
	a, b, c := g.operandRows(w, in)
	pred := g.evalRows(w, in, a, b, c)

	n := g.cfg.NumSPs
	passMask := uint32(1)<<n - 1
	for t0 := 0; t0 < WarpSize; t0 += n {
		if m := exec >> t0 & passMask; m != 0 {
			g.mon.ALUPass(g.cc, w.id, pc, in.Op, t0, m, a[t0:t0+n], b[t0:t0+n], c[t0:t0+n])
		}
		g.cc += uint64(passLat)
	}

	// Write-back comes after the monitor calls: a and c may be rows of
	// the register file, Rd among them.
	if isa.WritesRd(in.Op) {
		rd := &w.regs[in.Rd]
		if exec == 1<<WarpSize-1 {
			*rd = g.res
		} else {
			for m := exec; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				rd[l] = g.res[l]
			}
		}
	}
	if isa.SetsPred(in.Op) {
		w.preds[in.Pd] = w.preds[in.Pd]&^exec | pred&exec
	}
	advancePC(w)
}

func (g *GPU) execSFU(w *warpState, pc int, in isa.Instruction, exec uint32) {
	passes := WarpSize / g.cfg.NumSFUs
	for p := 0; p < passes; p++ {
		ccPass := g.cc
		for lane := 0; lane < g.cfg.NumSFUs; lane++ {
			t := p*g.cfg.NumSFUs + lane
			if exec&(1<<t) == 0 {
				continue
			}
			a := w.regs[in.Ra][t]
			g.mon.SFUOp(ccPass, w.id, pc, lane, t, in.Op, a)
			w.regs[in.Rd][t] = evalSFU(in.Op, a)
		}
		g.cc += uint64(g.cfg.Timing.SFUPass)
	}
	advancePC(w)
}

func (g *GPU) execMem(w *warpState, pc int, in isa.Instruction, exec uint32) {
	passes := WarpSize / g.cfg.NumSPs
	for p := 0; p < passes; p++ {
		ccPass := g.cc
		for lane := 0; lane < g.cfg.NumSPs; lane++ {
			t := p*g.cfg.NumSPs + lane
			if exec&(1<<t) == 0 {
				continue
			}
			addr := w.regs[in.Ra][t] + uint32(in.Imm)
			switch in.Op {
			case isa.OpGLD:
				w.regs[in.Rd][t] = g.global.Word(int(addr / 4))
			case isa.OpGST:
				v := w.regs[in.Rb][t]
				g.global.store(int(addr/4), v)
				g.mon.Store(ccPass, w.id, pc, t, SpaceGlobal, addr, v)
			case isa.OpSLD:
				w.regs[in.Rd][t] = g.shared.Word(int(addr / 4))
			case isa.OpSST:
				v := w.regs[in.Rb][t]
				g.shared.store(int(addr/4), v)
				g.mon.Store(ccPass, w.id, pc, t, SpaceShared, addr, v)
			case isa.OpLDC:
				w.regs[in.Rd][t] = g.constant.Word(int(addr / 4))
			}
		}
		g.cc += uint64(g.cfg.Timing.MemPass)
	}
	advancePC(w)
}

func (g *GPU) execCtrl(w *warpState, pc int, in isa.Instruction, exec, active uint32) error {
	g.cc += uint64(g.cfg.Timing.CtrlExec)
	t := w.top()
	switch in.Op {
	case isa.OpNOP:
		t.pc++

	case isa.OpSSY:
		w.pendingRPC = pc + 1 + int(in.Imm)
		t.pc++

	case isa.OpBRA:
		target := pc + 1 + int(in.Imm)
		taken := exec
		notTaken := active &^ exec
		switch {
		case taken == 0:
			t.pc++
		case notTaken == 0:
			t.pc = target
		default:
			// Divergence: the current entry becomes the reconvergence
			// record; both sides are pushed, taken side on top.
			rpc := w.pendingRPC
			if rpc == noRPC {
				rpc = pc + 1
			}
			w.pendingRPC = noRPC
			if len(w.stack)+2 > g.cfg.StackDepth {
				return fmt.Errorf("%w (warp %d, pc %d)", ErrStack, w.id, pc)
			}
			t.pc = rpc
			w.stack = append(w.stack,
				stackEntry{pc: pc + 1, rpc: rpc, mask: notTaken},
				stackEntry{pc: target, rpc: rpc, mask: taken},
			)
		}

	case isa.OpBAR:
		t.pc++
		w.atBar = true

	case isa.OpCAL:
		// Calls must be warp-uniform (all active lanes take them).
		w.calls = append(w.calls, pc+1)
		t.pc = pc + 1 + int(in.Imm)

	case isa.OpRET:
		if len(w.calls) == 0 {
			// RET outside a call ends the warp, as on real hardware where
			// the top-level return terminates the kernel thread.
			w.exited |= active
			t.mask = 0
			return nil
		}
		t.pc = w.calls[len(w.calls)-1]
		w.calls = w.calls[:len(w.calls)-1]

	case isa.OpEXIT:
		w.exited |= exec
		if notDone := active &^ exec; notDone != 0 {
			// Predicated EXIT: surviving lanes continue.
			t.pc++
		} else {
			t.mask &^= w.exited
		}
	}
	return nil
}

// operandRows resolves the (a, b, c) operand rows of an ALU/FPU
// instruction: a = R[Ra], b = R[Rb] or the immediate, c = R[Rd] for the
// multiply-add accumulators. An operand the opcode does not read is zero.
func (g *GPU) operandRows(w *warpState, in isa.Instruction) (a, b, c *row) {
	a, b, c = &g.zero, &g.zero, &g.zero
	if isa.ReadsRa(in.Op) {
		a = &w.regs[in.Ra]
	}
	switch {
	case isa.ReadsRb(in.Op):
		b = &w.regs[in.Rb]
	case isa.HasImm(in.Op) || in.Op == isa.OpMVI:
		for l := range g.imm {
			g.imm[l] = uint32(in.Imm)
		}
		b = &g.imm
	}
	if isa.ReadsRd(in.Op) {
		c = &w.regs[in.Rd]
	}
	return a, b, c
}

// specialReg reads special register sr for thread t of warp w (S2R).
func (g *GPU) specialReg(w *warpState, t int, sr int32) uint32 {
	switch sr {
	case isa.SRTid:
		return uint32(w.id*WarpSize + t)
	case isa.SRNTid:
		return uint32(g.tpb)
	case isa.SRCTAid:
		return uint32(g.block)
	case isa.SRWarp:
		return uint32(w.id)
	case isa.SRLane:
		return uint32(t % WarpSize)
	}
	return 0
}

// evalRows computes an ALU/FPU-class instruction on every lane of the
// operand rows into g.res and returns the lanes whose predicate outcome
// is true. Lanes outside the exec mask are computed too; the caller
// discards them.
func (g *GPU) evalRows(w *warpState, in isa.Instruction, a, b, c *row) (pred uint32) {
	res := &g.res
	switch in.Op {
	case isa.OpMOV:
		*res = *a
	case isa.OpMVI:
		*res = *b
	case isa.OpS2R:
		for l := range res {
			res[l] = g.specialReg(w, l, in.Imm)
		}
	case isa.OpIADD, isa.OpIADDI:
		for l := range res {
			res[l] = a[l] + b[l]
		}
	case isa.OpISUB, isa.OpISUBI:
		for l := range res {
			res[l] = a[l] - b[l]
		}
	case isa.OpIMUL, isa.OpIMULI:
		for l := range res {
			res[l] = a[l] * b[l]
		}
	case isa.OpIMAD:
		for l := range res {
			res[l] = a[l]*b[l] + c[l]
		}
	case isa.OpIMIN:
		for l := range res {
			res[l] = uint32(min(int32(a[l]), int32(b[l])))
		}
	case isa.OpIMAX:
		for l := range res {
			res[l] = uint32(max(int32(a[l]), int32(b[l])))
		}
	case isa.OpINEG:
		for l := range res {
			res[l] = -a[l]
		}
	case isa.OpAND, isa.OpANDI:
		for l := range res {
			res[l] = a[l] & b[l]
		}
	case isa.OpOR, isa.OpORI:
		for l := range res {
			res[l] = a[l] | b[l]
		}
	case isa.OpXOR, isa.OpXORI:
		for l := range res {
			res[l] = a[l] ^ b[l]
		}
	case isa.OpNOT:
		for l := range res {
			res[l] = ^a[l]
		}
	case isa.OpSHL, isa.OpSHLI:
		for l := range res {
			res[l] = a[l] << (b[l] & 31)
		}
	case isa.OpSHR, isa.OpSHRI:
		for l := range res {
			res[l] = a[l] >> (b[l] & 31)
		}
	case isa.OpISET, isa.OpISETI:
		for l := range res {
			res[l] = 0
			if intCond(in.Cond, int32(a[l]), int32(b[l])) {
				res[l] = 0xffffffff
				pred |= 1 << l
			}
		}
	case isa.OpFSET:
		for l := range res {
			res[l] = 0
			if floatCond(in.Cond, f32(a[l]), f32(b[l])) {
				res[l] = 0xffffffff
				pred |= 1 << l
			}
		}
	case isa.OpFADD:
		for l := range res {
			res[l] = fadd(a[l], b[l])
		}
	case isa.OpFMUL:
		for l := range res {
			res[l] = fmul(a[l], b[l])
		}
	case isa.OpFFMA:
		for l := range res {
			res[l] = fadd(c[l], fmul(a[l], b[l]))
		}
	case isa.OpFMIN:
		for l := range res {
			res[l] = u32(float32(math.Min(float64(f32(a[l])), float64(f32(b[l])))))
		}
	case isa.OpFMAX:
		for l := range res {
			res[l] = u32(float32(math.Max(float64(f32(a[l])), float64(f32(b[l])))))
		}
	case isa.OpF2I:
		for l := range res {
			res[l] = uint32(int32(f32(a[l])))
		}
	case isa.OpI2F:
		for l := range res {
			res[l] = u32(float32(int32(a[l])))
		}
	default:
		*res = row{}
	}
	return pred
}

// evalSFU computes an SFU transcendental.
func evalSFU(op isa.Opcode, a uint32) uint32 {
	x := float64(f32(a))
	var y float64
	switch op {
	case isa.OpRCP:
		y = 1 / x
	case isa.OpRSQ:
		y = 1 / math.Sqrt(x)
	case isa.OpSIN:
		y = math.Sin(x)
	case isa.OpCOS:
		y = math.Cos(x)
	case isa.OpLG2:
		y = math.Log2(x)
	case isa.OpEX2:
		y = math.Exp2(x)
	}
	return u32(float32(y))
}

func intCond(c isa.Cond, a, b int32) bool {
	switch c {
	case isa.CondEQ:
		return a == b
	case isa.CondNE:
		return a != b
	case isa.CondLT:
		return a < b
	case isa.CondLE:
		return a <= b
	case isa.CondGT:
		return a > b
	case isa.CondGE:
		return a >= b
	}
	return false
}

func floatCond(c isa.Cond, a, b float32) bool {
	switch c {
	case isa.CondEQ:
		return a == b
	case isa.CondNE:
		return a != b
	case isa.CondLT:
		return a < b
	case isa.CondLE:
		return a <= b
	case isa.CondGT:
		return a > b
	case isa.CondGE:
		return a >= b
	}
	return false
}

// fadd and fmul are FP32 addition and multiplication with a fixed NaN
// rule: a NaN result carries the first NaN operand, quieted, which is
// what SSE arithmetic does with its destination operand first. Go
// leaves the payload of a NaN result to the code generator's operand
// order, so without the rule a change of register allocation could
// change result bits. FFMA is fadd(c, fmul(a, b)): the accumulator's NaN
// comes first.
func fadd(x, y uint32) uint32 {
	r := f32(x) + f32(y)
	if r != r {
		return firstNaN(x, y, r)
	}
	return u32(r)
}

func fmul(x, y uint32) uint32 {
	r := f32(x) * f32(y)
	if r != r {
		return firstNaN(x, y, r)
	}
	return u32(r)
}

// firstNaN returns the first of x and y that is a NaN, quieted, or the
// NaN r the operation generated when neither operand is one.
func firstNaN(x, y uint32, r float32) uint32 {
	const quiet = 1 << 22
	switch {
	case isNaN32(x):
		return x | quiet
	case isNaN32(y):
		return y | quiet
	}
	return u32(r)
}

func isNaN32(u uint32) bool { return u&0x7f800000 == 0x7f800000 && u&0x7fffff != 0 }

func f32(u uint32) float32 { return math.Float32frombits(u) }
func u32(f float32) uint32 { return math.Float32bits(f) }
