package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/isa"
)

// OpStats is a Monitor that histograms the dynamic instruction mix: how
// many warp-instructions of each opcode were decoded and how many thread
// operations each executed — the data behind Table I-style "all
// instruction formats" coverage claims.
type OpStats struct {
	gpu.NopMonitor

	// Decodes counts warp-instruction decodes per opcode.
	Decodes [isa.NumOpcodes]uint64
	// ThreadOps counts per-thread executions per opcode (ALU/FPU/SFU/mem).
	ThreadOps [isa.NumOpcodes]uint64
	// Stores counts observable writes.
	Stores uint64
	// Engine accumulates the fault-simulation engine's counters across
	// the campaign's runs (fed via RecordEngine from each Report.Stats),
	// so the report shows optimization effectiveness — dedup hit-rate,
	// prescreen-skip ratio — next to the instruction mix.
	Engine fault.SimStats
}

// RecordEngine folds one fault-simulation run's counters into the
// report's engine block.
func (s *OpStats) RecordEngine(st fault.SimStats) {
	s.Engine.Add(st)
}

// Decode implements gpu.Monitor.
func (s *OpStats) Decode(cc uint64, warp, pc int, in isa.Instruction) {
	s.Decodes[in.Op]++
}

// ALUPass implements gpu.Monitor.
func (s *OpStats) ALUPass(cc uint64, warp, pc int, op isa.Opcode, thread0 int, exec uint32, a, b, c []uint32) {
	s.ThreadOps[op] += uint64(bits.OnesCount32(exec))
}

// SFUOp implements gpu.Monitor.
func (s *OpStats) SFUOp(cc uint64, warp, pc, lane, thread int, op isa.Opcode, a uint32) {
	s.ThreadOps[op]++
}

// MemOp implements gpu.Monitor.
func (s *OpStats) MemOp(cc uint64, warp, pc, thread int, op isa.Opcode, sp gpu.Space, addr uint32) {
	s.ThreadOps[op]++
}

// Store implements gpu.Monitor.
func (s *OpStats) Store(cc uint64, warp, pc, thread int, sp gpu.Space, addr, v uint32) {
	s.Stores++
}

// DistinctOpcodes returns how many different opcodes were decoded.
func (s *OpStats) DistinctOpcodes() int {
	n := 0
	for _, c := range s.Decodes {
		if c > 0 {
			n++
		}
	}
	return n
}

// TotalDecodes returns the dynamic warp-instruction count.
func (s *OpStats) TotalDecodes() uint64 {
	var n uint64
	for _, c := range s.Decodes {
		n += c
	}
	return n
}

// String renders the histogram, most frequent first.
func (s *OpStats) String() string {
	type row struct {
		op isa.Opcode
		n  uint64
	}
	var rows []row
	for op, n := range s.Decodes {
		if n > 0 {
			rows = append(rows, row{isa.Opcode(op), n})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].op < rows[j].op
	})
	var b strings.Builder
	fmt.Fprintf(&b, "dynamic mix: %d decodes, %d distinct opcodes, %d stores\n",
		s.TotalDecodes(), s.DistinctOpcodes(), s.Stores)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-6s %8d decodes %10d thread-ops\n",
			r.op, s.Decodes[r.op], s.ThreadOps[r.op])
	}
	if e := s.Engine; e.TotalPatterns > 0 || e.FaultEvals > 0 {
		fmt.Fprintf(&b, "engine: %d patterns (%d unique), %d blocks, %d fault evals\n",
			e.TotalPatterns, e.UniquePatterns, e.Blocks, e.FaultEvals)
		fmt.Fprintf(&b, "  dedup hit-rate    %6.2f%%\n", 100*e.DedupHitRate())
		fmt.Fprintf(&b, "  prescreen-skipped %6.2f%%\n", 100*e.PrescreenSkipRatio())
		fmt.Fprintf(&b, "  cone-skipped      %6.2f%%\n", 100*e.ConeSkipRatio())
		if e.BlockWords > 0 {
			fmt.Fprintf(&b, "  block width       %d words (%d patterns/block)\n",
				e.BlockWords, 64*e.BlockWords)
		}
		if e.PlanRuns > 0 {
			fmt.Fprintf(&b, "  eval plan         %d levels, %d kind-runs\n",
				e.PlanLevels, e.PlanRuns)
		}
	}
	return b.String()
}

var _ gpu.Monitor = (*OpStats)(nil)

// Tee fans monitor events out to several monitors, so a trace collector
// and a statistics monitor can observe the same run.
type Tee struct {
	Monitors []gpu.Monitor
}

// NewTee builds a fan-out monitor.
func NewTee(mons ...gpu.Monitor) *Tee { return &Tee{Monitors: mons} }

func (t *Tee) Fetch(cc uint64, warp, pc int, w isa.Word) {
	for _, m := range t.Monitors {
		m.Fetch(cc, warp, pc, w)
	}
}

func (t *Tee) Decode(cc uint64, warp, pc int, in isa.Instruction) {
	for _, m := range t.Monitors {
		m.Decode(cc, warp, pc, in)
	}
}

func (t *Tee) ALUPass(cc uint64, warp, pc int, op isa.Opcode, thread0 int, exec uint32, a, b, c []uint32) {
	for _, m := range t.Monitors {
		m.ALUPass(cc, warp, pc, op, thread0, exec, a, b, c)
	}
}

func (t *Tee) SFUOp(cc uint64, warp, pc, lane, thread int, op isa.Opcode, a uint32) {
	for _, m := range t.Monitors {
		m.SFUOp(cc, warp, pc, lane, thread, op, a)
	}
}

func (t *Tee) MemOp(cc uint64, warp, pc, thread int, op isa.Opcode, sp gpu.Space, addr uint32) {
	for _, m := range t.Monitors {
		m.MemOp(cc, warp, pc, thread, op, sp, addr)
	}
}

func (t *Tee) Store(cc uint64, warp, pc, thread int, sp gpu.Space, addr, v uint32) {
	for _, m := range t.Monitors {
		m.Store(cc, warp, pc, thread, sp, addr, v)
	}
}

func (t *Tee) Retire(ccStart, ccEnd uint64, warp, pc int) {
	for _, m := range t.Monitors {
		m.Retire(ccStart, ccEnd, warp, pc)
	}
}

var _ gpu.Monitor = (*Tee)(nil)
