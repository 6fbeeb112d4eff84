package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"gpustl/internal/circuits"
	"gpustl/internal/core"
	"gpustl/internal/fault"
	"gpustl/internal/ptpgen"
	"gpustl/internal/report"
	"gpustl/internal/run"
	"gpustl/internal/stl"
)

// library is one of the paper's three compaction runs: a module's PTPs
// in application order against its fault list, whether stage 3 applies
// the patterns in reverse (the paper does for SFU_IMM), and the name of
// the group's combined row (none for a single PTP); rep is its
// run.Run report once compacted.
type library struct {
	mod     *circuits.Module
	faults  []fault.Fault
	ptps    []*stl.PTP
	reverse bool
	group   string
	rep     *run.Report
}

// libraries lists the runs behind Tables I–III: the Decoder Unit PTPs
// and the SP PTPs each share one fault campaign, so each drops the
// faults its predecessors detected.
func (e *Env) libraries() []library {
	return []library{
		{mod: e.DU, faults: e.DUFaults, ptps: []*stl.PTP{e.IMM, e.MEM, e.CNTRL}, group: "IMM+MEM+CNTRL"},
		{mod: e.SP, faults: e.SPFaults, ptps: []*stl.PTP{e.TPGEN, e.RAND}, group: "TPGEN+RAND"},
		{mod: e.SFU, faults: e.SFUFaults, ptps: []*stl.PTP{e.SFUIMM}, reverse: true},
	}
}

// compactions compacts the libraries through run.Run, the production
// driver, once per Env: Tables I–III are views over their reports.
func (e *Env) compactions() ([]library, error) {
	e.compactOnce.Do(func() {
		libs := e.libraries()
		for i, l := range libs {
			if libs[i].rep, e.compactErr = e.compact(l.mod, l.faults, l.reverse, l.ptps...); e.compactErr != nil {
				return
			}
		}
		e.compacted = libs
	})
	return e.compacted, e.compactErr
}

// compact runs PTPs targeting m through run.Run with the FC-safety
// revert off (an infinite FCTolerance), since the paper reports every
// compaction, and fails unless each PTP compacted.
func (e *Env) compact(m *circuits.Module, faults []fault.Fault, reverse bool, ptps ...*stl.PTP) (*run.Report, error) {
	ms := &core.ModuleSet{
		Modules: map[circuits.ModuleKind]*circuits.Module{m.Kind: m},
		Faults:  map[circuits.ModuleKind][]fault.Fault{m.Kind: faults},
	}
	rep, err := run.Run(context.Background(), e.Cfg, ms, &stl.STL{PTPs: ptps},
		core.Options{ReversePatterns: reverse, Workers: e.Params.Workers},
		run.Options{FCTolerance: math.Inf(1)})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	for _, o := range rep.Outcomes {
		if o.Status != run.StatusCompacted {
			return nil, fmt.Errorf("experiments: %s %s: %s", o.Name, o.Status, o.Err)
		}
	}
	return rep, nil
}

// PTPStats is one row of Table I.
type PTPStats struct {
	Module   string
	Name     string
	Size     int
	ARCPct   float64
	Duration uint64
	FC       float64
}

// TableIResult reproduces Table I: the main features of the evaluated
// PTPs, including the combined rows.
type TableIResult struct {
	Rows []PTPStats
}

// TableI lists every PTP's size, admissible-region percentage, duration
// and standalone FC, as measured on the originals by the compaction
// runs, plus the two combined-group rows, whose FC is the module's
// original library FC.
func TableI(e *Env) (*TableIResult, error) {
	cs, err := e.compactions()
	if err != nil {
		return nil, err
	}
	out := &TableIResult{}
	for _, c := range cs {
		module := c.mod.Kind.String()
		group := PTPStats{Module: module, Name: c.group, ARCPct: groupARC(c.ptps...),
			FC: c.rep.Library[0].OrigFC()}
		for i, o := range c.rep.Outcomes {
			out.Rows = append(out.Rows, PTPStats{
				Module:   module,
				Name:     o.Name,
				Size:     o.OrigSize,
				ARCPct:   100 * c.ptps[i].ARCFraction(),
				Duration: o.OrigDuration,
				FC:       o.OrigFC,
			})
			group.Size += o.OrigSize
			group.Duration += o.OrigDuration
		}
		if c.group != "" {
			out.Rows = append(out.Rows, group)
		}
	}
	return out, nil
}

func groupARC(ptps ...*stl.PTP) float64 {
	instrs, arc := 0, 0.0
	for _, p := range ptps {
		instrs += len(p.Prog)
		arc += p.ARCFraction() * float64(len(p.Prog))
	}
	return 100 * arc / float64(instrs)
}

// Table converts the rows into a renderable report.Table.
func (t *TableIResult) Table() report.Table {
	tb := report.Table{
		Title:   "TABLE I. MAIN FEATURES OF THE EVALUATED PTPS",
		Headers: []string{"Target", "PTP", "Size (instr)", "ARC (%)", "Duration (cc)", "FC (%)"},
	}
	for _, r := range t.Rows {
		tb.AddRow(r.Module, r.Name, report.Int(r.Size), report.Pct(r.ARCPct),
			report.Uint(r.Duration), report.Pct(r.FC))
	}
	return tb
}

// Render writes Table I in the paper's layout.
func (t *TableIResult) Render(w io.Writer) {
	tb := t.Table()
	tb.Render(w)
}

// CompactRow is one row of Tables II / III.
type CompactRow struct {
	Name           string
	CompSize       int
	SizePct        float64 // negative = reduction, as printed in the paper
	CompDuration   uint64
	DurPct         float64
	DiffFC         float64
	CompactionTime time.Duration

	// Extra diagnostics beyond the paper's columns.
	OrigSize     int
	OrigDuration uint64
	OrigFC       float64
	CompFC       float64
	RemovedSBs   int
	TotalSBs     int
}

// rowFromOutcome is one compacted PTP's row.
func rowFromOutcome(o run.Outcome) CompactRow {
	return CompactRow{
		Name:           o.Name,
		CompSize:       o.CompSize,
		SizePct:        change(float64(o.OrigSize), float64(o.CompSize)),
		CompDuration:   o.CompDuration,
		DurPct:         change(float64(o.OrigDuration), float64(o.CompDuration)),
		DiffFC:         o.CompFC - o.OrigFC,
		CompactionTime: o.CompactionTime,
		OrigSize:       o.OrigSize,
		OrigDuration:   o.OrigDuration,
		OrigFC:         o.OrigFC,
		CompFC:         o.CompFC,
		RemovedSBs:     o.RemovedSBs,
		TotalSBs:       o.TotalSBs,
	}
}

// combinedRow aggregates a library's rows; its FC columns are the
// module's original and shipped library FC.
func combinedRow(name string, rep *run.Report) CompactRow {
	row := CompactRow{Name: name}
	for _, o := range rep.Outcomes {
		row.OrigSize += o.OrigSize
		row.CompSize += o.CompSize
		row.OrigDuration += o.OrigDuration
		row.CompDuration += o.CompDuration
		row.RemovedSBs += o.RemovedSBs
		row.TotalSBs += o.TotalSBs
		row.CompactionTime += o.CompactionTime
	}
	row.SizePct = change(float64(row.OrigSize), float64(row.CompSize))
	row.DurPct = change(float64(row.OrigDuration), float64(row.CompDuration))
	lib := rep.Library[0]
	row.OrigFC, row.CompFC = lib.OrigFC(), lib.ShippedFC()
	row.DiffFC = row.CompFC - row.OrigFC
	return row
}

// change is the percentage change from orig to comp: negative for a
// reduction, as the paper prints it.
func change(orig, comp float64) float64 { return -100 * (1 - comp/orig) }

// CompactionResult holds one table's compaction rows plus the compacted
// PTPs for downstream use.
type CompactionResult struct {
	Rows      []CompactRow
	Compacted map[string]*stl.PTP
}

// Table converts the rows into a renderable report.Table.
func (t *CompactionResult) Table(title string) report.Table {
	tb := report.Table{
		Title: title,
		Headers: []string{"PTP", "Size (instr)", "(%)", "Duration (cc)", "(%)",
			"Diff FC (%)", "Compaction time"},
	}
	for _, r := range t.Rows {
		tb.AddRow(r.Name, report.Int(r.CompSize), report.SignedPct(r.SizePct),
			report.Uint(r.CompDuration), report.SignedPct(r.DurPct),
			report.SignedPct(r.DiffFC), report.Dur(r.CompactionTime))
	}
	return tb
}

// Render writes the rows in the layout of Tables II and III.
func (t *CompactionResult) Render(w io.Writer, title string) {
	tb := t.Table(title)
	tb.Render(w)
}

// TableII is the Decoder Unit compaction: IMM, then MEM, then CNTRL
// with cross-PTP fault dropping, and the combined row.
func TableII(e *Env) (*CompactionResult, error) {
	return compactionTable(e, circuits.ModuleDU)
}

// TableIII is the functional-unit compaction: TPGEN then RAND on the SP
// campaign (with dropping), the combined row, and SFU_IMM with the
// reverse-order pattern application the paper reports for it.
func TableIII(e *Env) (*CompactionResult, error) {
	return compactionTable(e, circuits.ModuleSP, circuits.ModuleSFU)
}

// compactionTable renders the given modules' compactions as rows.
func compactionTable(e *Env, kinds ...circuits.ModuleKind) (*CompactionResult, error) {
	cs, err := e.compactions()
	if err != nil {
		return nil, err
	}
	out := &CompactionResult{Compacted: map[string]*stl.PTP{}}
	for _, c := range cs {
		if !slices.Contains(kinds, c.mod.Kind) {
			continue
		}
		for i, o := range c.rep.Outcomes {
			out.Rows = append(out.Rows, rowFromOutcome(o))
			out.Compacted[o.Name] = c.rep.Compacted.PTPs[i]
		}
		if c.group != "" {
			out.Rows = append(out.Rows, combinedRow(c.group, c.rep))
		}
	}
	return out, nil
}

// STLSummaryResult reproduces the whole-STL claims of Section IV: the
// DU+FU PTPs' share of the STL, and the overall size/duration reduction
// after compacting only those PTPs.
type STLSummaryResult struct {
	// Shares of the six compaction-candidate PTPs within the whole STL
	// (paper: 90.69% of size, 75.70% of duration).
	CandidateSizeShare float64
	CandidateDurShare  float64

	// Whole-STL reductions (paper: 80.71% size, 64.43% duration).
	STLSizeReduction float64
	STLDurReduction  float64

	TotalSize    int
	TotalDur     uint64
	RestSize     int
	RestDuration uint64
}

// Render writes the summary.
func (s *STLSummaryResult) Render(w io.Writer) {
	fmt.Fprintf(w, "STL summary\n")
	fmt.Fprintf(w, "  whole-STL size: %s instructions, duration: %s cc\n",
		report.Int(s.TotalSize), report.Uint(s.TotalDur))
	fmt.Fprintf(w, "  DU+FU PTPs share: %.2f%% of size, %.2f%% of duration\n",
		s.CandidateSizeShare, s.CandidateDurShare)
	fmt.Fprintf(w, "  whole-STL reduction after compaction: %.2f%% size, %.2f%% duration\n",
		s.STLSizeReduction, s.STLDurReduction)
}

// STLSummary composes the six PTPs with an uncompacted control-unit
// remainder (the STL parts the paper excludes from compaction) and
// computes the whole-STL reduction implied by Tables II and III.
func STLSummary(e *Env, t2, t3 *CompactionResult) (*STLSummaryResult, error) {
	var restSize int
	var restCC uint64
	for _, rest := range RestOfSTL(e) {
		_, cc, err := e.RunPTP(rest)
		if err != nil {
			return nil, err
		}
		restSize += len(rest.Prog)
		restCC += cc
	}

	var candSize, candCompSize int
	var candDur, candCompDur uint64
	for _, rows := range [][]CompactRow{t2.Rows, t3.Rows} {
		for _, r := range rows {
			if r.Name == "IMM+MEM+CNTRL" || r.Name == "TPGEN+RAND" {
				continue // combined rows double-count
			}
			candSize += r.OrigSize
			candCompSize += r.CompSize
			candDur += r.OrigDuration
			candCompDur += r.CompDuration
		}
	}

	total := candSize + restSize
	totalDur := candDur + restCC
	out := &STLSummaryResult{
		CandidateSizeShare: 100 * float64(candSize) / float64(total),
		CandidateDurShare:  100 * float64(candDur) / float64(totalDur),
		STLSizeReduction:   100 * float64(candSize-candCompSize) / float64(total),
		STLDurReduction:    100 * float64(candDur-candCompDur) / float64(totalDur),
		TotalSize:          total,
		TotalDur:           totalDur,
		RestSize:           restSize,
		RestDuration:       restCC,
	}
	return out, nil
}

// RestOfSTL generates the non-candidate remainder of the STL: PTPs
// carefully devised for control units, excluded from compaction because
// any instruction removal would break their test algorithms. It is sized
// so the six candidate PTPs hold roughly the paper's ~90% share of the
// STL's instructions.
func RestOfSTL(e *Env) []*stl.PTP {
	candSize := 0
	for _, p := range e.PTPs() {
		candSize += len(p.Prog)
	}
	// A full-depth divergence-stack walk plus CNTRL-style control tests.
	divg := ptpgen.DIVG(5, 2, e.Params.Seed+31)
	// Together ~10.3% of the STL (90.69% candidate share in the paper).
	sections := (candSize/10 - len(divg.Prog)) / 22
	if sections < 2 {
		sections = 2
	}
	// 256 threads: the remainder's runtime share should not dwarf the
	// candidates' (the paper's non-candidate PTPs hold ~24% of the STL
	// duration).
	rest := ptpgen.CNTRLThreads(sections, 256, e.Params.Seed+30)
	rest.Name = "OTHERS"
	return []*stl.PTP{rest, divg}
}
