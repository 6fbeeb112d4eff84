package core

import (
	"fmt"
	"sort"

	"gpustl/internal/fault"
	"gpustl/internal/trace"
)

// LabelDetail is the full output of the Fig. 2 labeling algorithm: per
// instruction, whether it is essential, and which warps' executions made
// it so — the "for each warp Wj ... for each clock cycle k" loop of the
// paper made inspectable.
type LabelDetail struct {
	Essential []bool
	// WarpHits[pc] maps warp id -> number of fault-detecting patterns that
	// warp's execution of pc applied; nil when the instruction detected
	// nothing.
	WarpHits []map[int16]int

	// Detections is the total number of fault detections attributed.
	Detections int
	// UnmatchedCCs counts FSR entries whose clock cycle did not resolve to
	// any traced instruction span (should be zero on a consistent trace).
	UnmatchedCCs int
}

// EssentialCount returns how many instructions are essential.
func (d *LabelDetail) EssentialCount() int {
	n := 0
	for _, e := range d.Essential {
		if e {
			n++
		}
	}
	return n
}

// Warps returns the sorted warp ids that made pc essential.
func (d *LabelDetail) Warps(pc int) []int16 {
	if pc >= len(d.WarpHits) || d.WarpHits[pc] == nil {
		return nil
	}
	out := make([]int16, 0, len(d.WarpHits[pc]))
	for w := range d.WarpHits[pc] {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String summarizes the labeling.
func (d *LabelDetail) String() string {
	return fmt.Sprintf("labeling: %d/%d essential, %d detections, %d unmatched ccs",
		d.EssentialCount(), len(d.Essential), d.Detections, d.UnmatchedCCs)
}

// LabelDetailed runs the Fig. 2 algorithm keeping the per-warp attribution.
// It is the inspectable variant of Label; both agree on the Essential
// vector.
func LabelDetailed(progLen int, rep *fault.Report, idx *trace.CCIndex) *LabelDetail {
	d := &LabelDetail{
		Essential: make([]bool, progLen),
		WarpHits:  make([]map[int16]int, progLen),
	}
	for i, n := range rep.DetectedPerPattern {
		if n == 0 {
			continue
		}
		warp, pc, ok := idx.Lookup(rep.Stream[i].CC)
		if !ok || int(pc) >= progLen {
			d.UnmatchedCCs++
			continue
		}
		d.Detections += int(n)
		d.Essential[pc] = true
		if d.WarpHits[pc] == nil {
			d.WarpHits[pc] = make(map[int16]int)
		}
		d.WarpHits[pc][warp] += int(n)
	}
	return d
}
