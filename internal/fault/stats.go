package fault

import (
	"fmt"
	"strings"

	"gpustl/internal/obs"
)

// SimStats counts what the optimized simulation engine actually did: how
// many fault×block evaluations were answered by the cone test or the
// activation pre-screen alone, and how many needed a full fan-out-cone
// propagation. The counters make optimization effectiveness observable —
// a regression here shows up even when wall-clock noise hides it.
//
// TotalPatterns/UniquePatterns describe the stream once per run;
// Blocks/FaultEvals/ConeSkips/PrescreenSkips/Propagations sum the work of
// all shards (a fault×block visit is counted exactly once, under exactly
// one of the three outcomes or as a drop-hit propagation).
type SimStats struct {
	// Blocks is the number of pattern-block good-circuit evaluations run
	// (64×BlockWords patterns each).
	Blocks uint64 `json:"blocks"`
	// BlockWords is the evaluator block width of the run, in 64-pattern
	// machine words: each good-circuit sweep covers 64×BlockWords
	// patterns. Merging takes the maximum, so a campaign's cumulative
	// stats report the widest width any of its runs used; the test-only
	// reference engine always reports 1.
	BlockWords uint64 `json:"block_words,omitempty"`
	// PlanLevels and PlanRuns describe the netlist's compiled
	// evaluation plan: how many logic levels hold planned gates and how
	// many contiguous (level, kind) gate runs the sweep walks. Properties
	// of the circuit, not of the run; merged by maximum like BlockWords.
	PlanLevels uint64 `json:"plan_levels,omitempty"`
	PlanRuns   uint64 `json:"plan_runs,omitempty"`
	// TotalPatterns is the stream length the run packed (after lane
	// filtering). UniquePatterns equals it: the stream arrives
	// deduplicated from trace.Collector, and the engine packs it as is.
	TotalPatterns  uint64 `json:"total_patterns"`
	UniquePatterns uint64 `json:"unique_patterns"`
	// FaultEvals counts fault×block visits.
	FaultEvals uint64 `json:"fault_evals"`
	// ConeSkips counts visits resolved by the unchanged-cone test: no
	// primary input in the fault's detection support changed since the
	// previous block, so the (zero) detection mask carries over.
	ConeSkips uint64 `json:"cone_skips"`
	// PrescreenSkips counts visits resolved by the activation pre-screen:
	// the fault site's local delta was zero, so nothing can propagate.
	PrescreenSkips uint64 `json:"prescreen_skips"`
	// Propagations counts visits that computed a real detection mask: in
	// the shard walker a delta&ObsW combination against the memoized
	// observability of the fault site (the compiled-cone pass that fills
	// a stem's memo is amortized, not per-fault); in the reference engine
	// a forward sweep of the faulty circuit.
	Propagations uint64 `json:"propagations"`
}

// Add accumulates o into s. Work counters sum; the configuration-like
// fields (block width, plan shape) merge by maximum, so shard stats
// (which leave them zero) never erase the run-level values.
func (s *SimStats) Add(o SimStats) {
	s.Blocks += o.Blocks
	s.BlockWords = max(s.BlockWords, o.BlockWords)
	s.PlanLevels = max(s.PlanLevels, o.PlanLevels)
	s.PlanRuns = max(s.PlanRuns, o.PlanRuns)
	s.TotalPatterns += o.TotalPatterns
	s.UniquePatterns += o.UniquePatterns
	s.FaultEvals += o.FaultEvals
	s.ConeSkips += o.ConeSkips
	s.PrescreenSkips += o.PrescreenSkips
	s.Propagations += o.Propagations
}

// PrescreenSkipRatio returns the fraction of fault×block visits the
// activation pre-screen resolved, in [0,1].
func (s SimStats) PrescreenSkipRatio() float64 {
	if s.FaultEvals == 0 {
		return 0
	}
	return float64(s.PrescreenSkips) / float64(s.FaultEvals)
}

// ConeSkipRatio returns the fraction of fault×block visits the
// unchanged-cone test resolved, in [0,1].
func (s SimStats) ConeSkipRatio() float64 {
	if s.FaultEvals == 0 {
		return 0
	}
	return float64(s.ConeSkips) / float64(s.FaultEvals)
}

// Record publishes the stats under the gpustl_fault_* engine series.
// The in-process run (SimulateCtx) and the distributed coordinator
// (summed shard replies) both call it once per run, so a quantity has
// one name wherever the simulation ran. The counters say how much work
// the optimizations resolved without a full propagation; the shape gauges
// let dashboards attribute throughput shifts to block-width selection
// rather than guessing from pattern counts. A nil registry is a no-op.
func (s SimStats) Record(m *obs.Registry) {
	if m == nil {
		return
	}
	m.Counter("gpustl_fault_blocks_total").Add(s.Blocks)
	m.Counter("gpustl_fault_patterns_total").Add(s.TotalPatterns)
	m.Counter("gpustl_fault_evals_total").Add(s.FaultEvals)
	m.Counter("gpustl_fault_prescreen_skips_total").Add(s.PrescreenSkips)
	m.Counter("gpustl_fault_cone_skips_total").Add(s.ConeSkips)
	m.Counter("gpustl_fault_propagations_total").Add(s.Propagations)
	m.Gauge("gpustl_fault_prescreen_skip_ratio").Set(s.PrescreenSkipRatio())
	m.Gauge("gpustl_fault_cone_skip_ratio").Set(s.ConeSkipRatio())
	m.Gauge("gpustl_fault_block_words").Set(float64(s.BlockWords))
	m.Gauge("gpustl_fault_plan_levels").Set(float64(s.PlanLevels))
	m.Gauge("gpustl_fault_plan_runs").Set(float64(s.PlanRuns))
}

// String renders the stats as an aligned report block.
func (s SimStats) String() string {
	pct := func(n uint64) float64 {
		if s.FaultEvals == 0 {
			return 0
		}
		return 100 * float64(n) / float64(s.FaultEvals)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fault-sim engine stats\n")
	fmt.Fprintf(&b, "  blocks      %12d  (%d patterns / sweep, %d-word blocks)\n",
		s.Blocks, 64*max(s.BlockWords, 1), max(s.BlockWords, 1))
	if s.PlanRuns > 0 {
		fmt.Fprintf(&b, "  eval plan   %12d levels  %6d kind-runs\n", s.PlanLevels, s.PlanRuns)
	}
	fmt.Fprintf(&b, "  fault evals %12d\n", s.FaultEvals)
	fmt.Fprintf(&b, "    cone-skipped      %12d  %6.2f%%\n", s.ConeSkips, pct(s.ConeSkips))
	fmt.Fprintf(&b, "    prescreen-skipped %12d  %6.2f%%\n", s.PrescreenSkips, pct(s.PrescreenSkips))
	fmt.Fprintf(&b, "    propagated        %12d  %6.2f%%\n", s.Propagations, pct(s.Propagations))
	return b.String()
}
