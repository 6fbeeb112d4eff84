package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gpustl/internal/asm"
	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/isa"
	"gpustl/internal/ptpgen"
	"gpustl/internal/stl"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// tee fans monitor events out to several monitors, so one logic
// simulation feeds a collector per module kind and the store log.
type tee []gpu.Monitor

func (t tee) Fetch(cc uint64, warp, pc int, w isa.Word) {
	for _, m := range t {
		m.Fetch(cc, warp, pc, w)
	}
}

func (t tee) Decode(cc uint64, warp, pc int, in isa.Instruction) {
	for _, m := range t {
		m.Decode(cc, warp, pc, in)
	}
}

func (t tee) ALUPass(cc uint64, warp, pc int, op isa.Opcode, thread0 int, exec uint32, a, b, c []uint32) {
	for _, m := range t {
		m.ALUPass(cc, warp, pc, op, thread0, exec, a, b, c)
	}
}

func (t tee) SFUOp(cc uint64, warp, pc, lane, thread int, op isa.Opcode, a uint32) {
	for _, m := range t {
		m.SFUOp(cc, warp, pc, lane, thread, op, a)
	}
}

func (t tee) Store(cc uint64, warp, pc, thread int, sp gpu.Space, addr, v uint32) {
	for _, m := range t {
		m.Store(cc, warp, pc, thread, sp, addr, v)
	}
}

func (t tee) Retire(ccStart, ccEnd uint64, warp, pc int) {
	for _, m := range t {
		m.Retire(ccStart, ccEnd, warp, pc)
	}
}

func TestTeeDeliversToAll(t *testing.T) {
	prog, err := asm.Assemble("MVI R1, 1\nGST [R0+0], R1\nEXIT")
	if err != nil {
		t.Fatal(err)
	}
	stores := &storeLog{}
	col := NewCollector(circuits.ModuleDU)
	g, _ := gpu.New(gpu.DefaultConfig(), tee{stores, col})
	if _, err := g.Run(gpu.Kernel{Prog: prog, Blocks: 1, ThreadsPerBlock: 32}); err != nil {
		t.Fatal(err)
	}
	if len(stores.stores) != 32 {
		t.Errorf("store log got %d stores", len(stores.stores))
	}
	if rows := Rows(col.Spans, prog); len(col.Patterns) != 3 || len(rows) != 3 {
		t.Errorf("collector got %d patterns, %d rows", len(col.Patterns), len(rows))
	}
}

// storeLog is a test monitor recording every observable write (GST/SST)
// in execution order.
type storeLog struct {
	gpu.NopMonitor
	stores []storeEvent
}

type storeEvent struct {
	cc     uint64
	warp   int
	pc     int
	thread int
	space  gpu.Space
	addr   uint32
	value  uint32
}

func (s *storeLog) Store(cc uint64, warp, pc, thread int, sp gpu.Space, addr, v uint32) {
	s.stores = append(s.stores, storeEvent{cc, warp, pc, thread, sp, addr, v})
}

// streamCase is one pinned logic simulation: a program, its launch and
// the simulator configuration.
type streamCase struct {
	name   string
	ptp    *stl.PTP
	blocks int // 0 = the PTP's own
	numSPs int // 0 = 8
	numSMs int
}

// streamCases covers every PTP family of the STL (IMM, MEM and CNTRL on
// the DU, RAND and a small TPGEN on the SP, an SFU program, the FP32
// program, the divergence kernel), multi-warp blocks, multi-block grids,
// and the 16- and 32-lane SP configurations. Every case runs under a
// collector for each module kind, so every module's stream is pinned on
// all of them.
func streamCases() []streamCase {
	r := rand.New(rand.NewSource(5))
	spPats := make([]circuits.Pattern, 48)
	for i := range spPats {
		spPats[i] = circuits.EncodeSPPattern(circuits.SPFn(r.Intn(circuits.NumSPFns)),
			0, r.Uint32(), r.Uint32(), r.Uint32())
		spPats[i].W[1] |= uint64(r.Intn(6)) << 36 // condition field
	}
	tpgen, _ := ptpgen.TPGEN(spPats, 3)
	sfuPats := make([]circuits.Pattern, 24)
	for i := range sfuPats {
		sfuPats[i] = circuits.EncodeSFUPattern(circuits.SFUFn(r.Intn(circuits.NumSFUFns)), r.Uint32())
	}
	sfu, _ := ptpgen.SFUIMM(sfuPats, 4)
	rnd := ptpgen.RAND(20, 6)
	return []streamCase{
		{name: "IMM", ptp: ptpgen.IMM(30, 1)},
		{name: "MEM", ptp: ptpgen.MEM(30, 2)},
		{name: "CNTRL", ptp: ptpgen.CNTRL(10, 3)},
		{name: "CNTRL/t64", ptp: ptpgen.CNTRLThreads(10, 64, 4)},
		{name: "RAND", ptp: rnd},
		{name: "RAND/sp16", ptp: rnd, numSPs: 16},
		{name: "RAND/sp32", ptp: rnd, numSPs: 32},
		{name: "RAND/b3sm2", ptp: rnd, blocks: 3, numSMs: 2},
		{name: "TPGEN", ptp: tpgen},
		{name: "SFU_IMM", ptp: sfu},
		{name: "FP_RAND", ptp: ptpgen.FPRAND(20, 7)},
		{name: "DIVG", ptp: ptpgen.DIVG(3, 2, 8)},
	}
}

// digest returns the hex sha256 of what write puts into it.
func digest(write func(h hash.Hash)) string {
	h := sha256.New()
	write(h)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func putU64(h hash.Hash, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// renderStreams runs every stream case and renders, per case, the run's
// cycle and instruction counts and the sha256 of its final global
// memory, its retire spans, its store stream and each module's pattern
// stream, in application order and reversed.
func renderStreams(t *testing.T) string {
	t.Helper()
	var out bytes.Buffer
	for _, sc := range streamCases() {
		cfg := gpu.DefaultConfig()
		if sc.numSPs != 0 {
			cfg.NumSPs = sc.numSPs
		}
		cfg.NumSMs = sc.numSMs
		cols := make([]*Collector, circuits.NumModuleKinds)
		mons := tee{}
		for k := range cols {
			cols[k] = NewCollector(circuits.ModuleKind(k))
			mons = append(mons, cols[k])
		}
		stores := &storeLog{}
		mons = append(mons, stores)
		g, err := gpu.New(cfg, mons)
		if err != nil {
			t.Fatal(err)
		}
		blocks := sc.ptp.Kernel.Blocks
		if sc.blocks != 0 {
			blocks = sc.blocks
		}
		res, err := g.Run(gpu.Kernel{
			Prog: sc.ptp.Prog, Blocks: blocks, ThreadsPerBlock: sc.ptp.Kernel.ThreadsPerBlock,
			GlobalBase: sc.ptp.Data.Base, GlobalData: sc.ptp.Data.Words,
		})
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		fmt.Fprintf(&out, "%s cycles %d\n", sc.name, res.Cycles)
		fmt.Fprintf(&out, "%s instructions %d\n", sc.name, res.Instructions)
		fmt.Fprintf(&out, "%s global %s\n", sc.name, digest(func(h hash.Hash) {
			binary.Write(h, binary.LittleEndian, res.Global.Image())
		}))
		spans := cols[0].Spans
		fmt.Fprintf(&out, "%s spans %d %s\n", sc.name, len(spans), digest(func(h hash.Hash) {
			for _, s := range spans {
				putU64(h, uint64(s.Warp), uint64(s.PC), s.CCStart, s.CCEnd)
			}
		}))
		fmt.Fprintf(&out, "%s stores %d %s\n", sc.name, len(stores.stores), digest(func(h hash.Hash) {
			for _, s := range stores.stores {
				putU64(h, s.cc, uint64(s.warp), uint64(s.pc), uint64(s.thread),
					uint64(s.space), uint64(s.addr), uint64(s.value))
			}
		}))
		for k, col := range cols {
			fmt.Fprintf(&out, "%s patterns %v %d %s\n", sc.name, circuits.ModuleKind(k),
				len(col.Patterns), digest(func(h hash.Hash) { hashPatterns(h, col.Patterns) }))
		}
		for k, col := range cols {
			rev := col.Reversed()
			fmt.Fprintf(&out, "%s reversed %v %d %s\n", sc.name, circuits.ModuleKind(k),
				len(rev), digest(func(h hash.Hash) { hashPatterns(h, rev) }))
		}
	}
	return out.String()
}

func hashPatterns(h hash.Hash, ps []fault.TimedPattern) {
	for _, p := range ps {
		putU64(h, p.CC, uint64(p.Lane), uint64(p.Warp), uint64(p.PC), p.Pat.W[0], p.Pat.W[1])
	}
}

// TestStreamsGolden pins, bit for bit, what one logic simulation
// produces for each PTP family: cycles, dynamic instruction count, the
// final global memory, the retire spans, the store stream and every
// module's test-pattern stream, each (lane, input vector) once, in
// application order and reversed. Any change to the simulator's execution
// or to pattern extraction that is meant to be output-preserving must
// leave testdata/streams.golden untouched. Regenerate with
// `go test ./internal/trace -run StreamsGolden -update` only for a change
// meant to move the streams.
func TestStreamsGolden(t *testing.T) {
	got := renderStreams(t)
	golden := filepath.Join("testdata", "streams.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("streams drifted from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
