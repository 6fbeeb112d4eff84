// Package fault implements permanent stuck-at fault modeling and an
// optimized gate-level fault simulator for the GPU modules of package
// circuits.
//
// The simulator follows the paper's "optimized fault simulation": instead
// of fault-simulating the whole GPU, only the target module is simulated,
// with module-level fault observability — a fault counts as detected when a
// test pattern produces a discrepancy at the module's outputs. Patterns are
// the per-clock-cycle input vectors extracted by the logic-tracing stage.
//
// Faults are simulated serially with 64×W patterns in parallel (one per
// bit of W machine words) and evaluation restricted to each fault's
// fan-out cone; detected faults are dropped immediately. A persistent fault list
// lets several PTPs targeting the same module share one campaign, which is
// the cross-PTP fault-dropping mechanism of the paper's stage 3.
package fault

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"gpustl/internal/circuits"
	"gpustl/internal/netlist"
	"gpustl/internal/obs"
)

// ID identifies a fault within a campaign's master list.
type ID int32

// Fault is a single stuck-at fault in one lane (instance) of the module.
type Fault struct {
	Lane int16
	Site netlist.FaultSite
}

// String renders the fault with its lane.
func (f Fault) String() string { return fmt.Sprintf("lane%d.%v", f.Lane, f.Site) }

// AllSites enumerates the uncollapsed single-stuck-at fault universe of a
// netlist: every gate output and every gate input pin, stuck at 0 and 1.
// Primary inputs contribute their (output) stem faults; constants are
// excluded (a stuck constant is undetectable by construction).
func AllSites(nl *netlist.Netlist) []netlist.FaultSite {
	var sites []netlist.FaultSite
	for id := int32(0); id < int32(len(nl.Gates)); id++ {
		g := nl.Gates[id]
		if g.Kind == netlist.KConst0 || g.Kind == netlist.KConst1 {
			continue
		}
		for _, sa1 := range []bool{false, true} {
			sites = append(sites, netlist.FaultSite{Gate: id, Pin: -1, SA1: sa1})
		}
		for p := 0; p < g.NumIn(); p++ {
			for _, sa1 := range []bool{false, true} {
				sites = append(sites, netlist.FaultSite{Gate: id, Pin: int8(p), SA1: sa1})
			}
		}
	}
	return sites
}

// CollapseEquivalent removes structurally equivalent faults within each
// gate (classic fault collapsing rules): for AND/NAND, an input sa0 is
// equivalent to the output sa0 (saX for the inverting forms); dually for
// OR/NOR with sa1; for BUF/NOT every input fault collapses into an output
// fault. The returned list is a subset of sites.
func CollapseEquivalent(nl *netlist.Netlist, sites []netlist.FaultSite) []netlist.FaultSite {
	keep := make([]netlist.FaultSite, 0, len(sites))
	for _, s := range sites {
		if s.Pin < 0 {
			keep = append(keep, s)
			continue
		}
		g := nl.Gates[s.Gate]
		switch g.Kind {
		case netlist.KBuf, netlist.KNot:
			continue // input faults equivalent to output faults
		case netlist.KAnd, netlist.KNand:
			if !s.SA1 {
				continue // input sa0 ≡ output sa0 (AND) / sa1 (NAND)
			}
		case netlist.KOr, netlist.KNor:
			if s.SA1 {
				continue
			}
		}
		keep = append(keep, s)
	}
	return keep
}

// ExpandLanes replicates the per-netlist fault sites across the module's
// lane instances, producing the campaign master list.
func ExpandLanes(sites []netlist.FaultSite, lanes int) []Fault {
	out := make([]Fault, 0, len(sites)*lanes)
	for l := 0; l < lanes; l++ {
		for _, s := range sites {
			out = append(out, Fault{Lane: int16(l), Site: s})
		}
	}
	return out
}

// TimedPattern is one module test pattern with the tracing metadata needed
// to join it against the logic-trace report: the clock cycle it was applied
// on, the lane it entered, and (for validation) the warp and PC of the
// instruction that generated it.
type TimedPattern struct {
	CC   uint64
	Lane int16
	Warp int16
	PC   int32
	Pat  circuits.Pattern
}

// Campaign is a persistent fault-simulation context for one module. The
// fault list survives across Simulate calls, so PTPs applied in sequence
// drop each other's faults, as in the paper's stage-3 fault list report.
type Campaign struct {
	Module *circuits.Module

	faults   []Fault
	detected []bool
	nDet     int

	initErr error // deferred constructor error (e.g. sequential module)

	// stats accumulates engine counters across this campaign's SimulateCtx
	// runs (the per-campaign dictionary effectiveness view); guarded by
	// statsMu only because Stats() may be read while a run is merging.
	statsMu sync.Mutex
	stats   SimStats
	runs    uint64

	// Cone ordering of the fault list (see coneOrdering), built once per
	// fault list: SampleFaults drops it.
	coneOnce  sync.Once
	coneOrder []ID
	coneRank  []int32
}

// NewCampaign creates a campaign over the module's full uncollapsed
// stuck-at fault list. A campaign over an unsupported (sequential) module
// is created in a failed state: SimulateCtx returns the error, Err exposes
// it.
func NewCampaign(m *circuits.Module) *Campaign {
	return newCampaign(m, ExpandLanes(AllSites(m.NL), m.Lanes))
}

// NewCampaignWithFaults creates a campaign over an explicit fault list.
func NewCampaignWithFaults(m *circuits.Module, faults []Fault) *Campaign {
	fs := make([]Fault, len(faults))
	copy(fs, faults)
	return newCampaign(m, fs)
}

// newCampaign wraps an owned fault list. Evaluators come from the
// netlist's per-width pool at run time, so the only construction-time
// check is that the module is combinational.
func newCampaign(m *circuits.Module, faults []Fault) *Campaign {
	c := &Campaign{Module: m, faults: faults, detected: make([]bool, len(faults))}
	if m.NL.NumDFFs() > 0 {
		c.initErr = fmt.Errorf("fault: %s: %w", m.NL.Name, netlist.ErrSequential)
	}
	return c
}

// Err returns the campaign's deferred construction error, if any. A
// campaign with a non-nil Err cannot simulate.
func (c *Campaign) Err() error { return c.initErr }

// SampleFaults reduces the campaign to a deterministic random sample of n
// faults (all faults kept when n >= total). Sampling is the standard way to
// keep large campaigns tractable; the paper-scale configuration uses the
// full list.
func (c *Campaign) SampleFaults(n int, seed int64) {
	if n >= len(c.faults) {
		return
	}
	r := rand.New(rand.NewSource(seed))
	idx := r.Perm(len(c.faults))[:n]
	sort.Ints(idx)
	nf := make([]Fault, n)
	for i, j := range idx {
		nf[i] = c.faults[j]
	}
	c.faults = nf
	c.detected = make([]bool, n)
	c.nDet = 0
	// The cone ordering indexes the old list; rebuild it on next use.
	c.coneOnce = sync.Once{}
	c.coneOrder, c.coneRank = nil, nil
}

// Faults returns the campaign's master fault list (do not mutate).
func (c *Campaign) Faults() []Fault { return c.faults }

// Total returns the master fault-list size.
func (c *Campaign) Total() int { return len(c.faults) }

// Detected returns how many faults have been detected so far.
func (c *Campaign) Detected() int { return c.nDet }

// Remaining returns how many faults are still undetected.
func (c *Campaign) Remaining() int { return len(c.faults) - c.nDet }

// Coverage returns the cumulative fault coverage in percent.
func (c *Campaign) Coverage() float64 {
	if len(c.faults) == 0 {
		return 0
	}
	return 100 * float64(c.nDet) / float64(len(c.faults))
}

// GroupCoverage is the campaign outcome for one functional group of the
// module's netlist.
type GroupCoverage struct {
	Group    string
	Total    int
	Detected int
}

// Pct returns the group's coverage percentage.
func (g GroupCoverage) Pct() float64 {
	if g.Total == 0 {
		return 0
	}
	return 100 * float64(g.Detected) / float64(g.Total)
}

// CoverageByGroup aggregates the campaign state per functional group of
// the netlist (as tagged by the circuit builders), summed over lanes —
// the diagnostic view of which datapath blocks a PTP tests well.
func (c *Campaign) CoverageByGroup() []GroupCoverage {
	byName := make(map[string]*GroupCoverage)
	order := []string{}
	for id, f := range c.faults {
		g := c.Module.NL.GroupOf(f.Site.Gate)
		gc, ok := byName[g]
		if !ok {
			gc = &GroupCoverage{Group: g}
			byName[g] = gc
			order = append(order, g)
		}
		gc.Total++
		if c.detected[id] {
			gc.Detected++
		}
	}
	out := make([]GroupCoverage, 0, len(order))
	sort.Strings(order)
	for _, g := range order {
		out = append(out, *byName[g])
	}
	return out
}

// Reset clears all detections, restoring the full fault list.
func (c *Campaign) Reset() {
	for i := range c.detected {
		c.detected[i] = false
	}
	c.nDet = 0
}

// IsDetected reports whether fault id has been detected.
func (c *Campaign) IsDetected(id ID) bool { return c.detected[id] }

// DetectedIDs returns the ids of all detected faults, ascending. Together
// with RestoreDetected it lets a checkpointing layer persist and restore
// the cross-PTP fault-dropping state of a campaign.
func (c *Campaign) DetectedIDs() []ID {
	out := make([]ID, 0, c.nDet)
	for id, d := range c.detected {
		if d {
			out = append(out, ID(id))
		}
	}
	return out
}

// RestoreDetected marks the given fault ids as detected (idempotent). Ids
// outside the master list are an error; the campaign is only mutated when
// every id is valid.
func (c *Campaign) RestoreDetected(ids []ID) error {
	for _, id := range ids {
		if id < 0 || int(id) >= len(c.faults) {
			return fmt.Errorf("fault: RestoreDetected: id %d outside master list (%d faults)",
				id, len(c.faults))
		}
	}
	for _, id := range ids {
		if !c.detected[id] {
			c.detected[id] = true
			c.nDet++
		}
	}
	return nil
}

// Detection records the first pattern that detected a fault.
type Detection struct {
	Fault   ID
	Pattern int32 // index into the simulated stream
	CC      uint64
}

// Report is the Fault Sim Report (FSR) of one Simulate run: per-pattern
// detection counts plus the individual first detections, in stream order.
type Report struct {
	NumPatterns int
	// DetectedPerPattern[i] counts faults first detected by stream entry i.
	DetectedPerPattern []int32
	// Detections lists each fault detected during this run.
	Detections []Detection

	// Stats reports what the simulation engine did on this run: dedup
	// effectiveness, pre-screen and cone-skip hit counts, propagation
	// count.
	Stats SimStats

	// Copied stream metadata, so the FSR is self-contained like the
	// paper's text-file report.
	CCs   []uint64
	Lanes []int16
	PCs   []int32
	Warps []int16
}

// DetectedThisRun returns the number of faults the run detected.
func (r *Report) DetectedThisRun() int { return len(r.Detections) }

// SimOptions tunes a Simulate run.
type SimOptions struct {
	// Reverse applies the pattern stream in reverse order (used by the
	// paper for the SFU_IMM PTP, where reverse-order application improved
	// compaction).
	Reverse bool
	// BlockWords sets the evaluator block width in 64-pattern machine
	// words: each good-circuit sweep covers 64×BlockWords patterns, with
	// stride-BlockWords value arrays throughout the engine. 0 (the
	// default) auto-selects from the deduplicated stream length
	// (AutoBlockWords); values outside [0, netlist.MaxBlockWords] are
	// rejected with an error. Detections are byte-identical at every
	// width — bit order equals stream order, so first detections cannot
	// move.
	BlockWords int
	// Workers runs the fault-serial loop on this many goroutines, each
	// with its own evaluator over a shard of the fault list. Results are
	// bit-identical to the serial run (first detections are per-fault).
	// 0 selects runtime.GOMAXPROCS(0); 1 means serial; negative values
	// are rejected with an error.
	Workers int
	// Metrics receives batched simulation counters (patterns simulated,
	// faults dropped, throughput). Updates happen once per SimulateCtx
	// call, after the shard merge — never inside the 64-pattern inner
	// loop — so instrumentation cost is independent of campaign size.
	// nil disables metric recording.
	Metrics *obs.Registry
}

// minFaultsPerWorker bounds the parallel fan-out: spawning a goroutine
// (and building a private evaluator) is only worth a few hundred faults
// of work, so small campaigns scale the worker count down.
const minFaultsPerWorker = 256

// planWorkers validates and resolves SimOptions.Workers: negative values
// are an error, 0 defaults to runtime.GOMAXPROCS(0), and the fan-out is
// capped so every worker has at least minFaultsPerWorker
// faults. Results are identical at any resolved count.
func (c *Campaign) planWorkers(opt SimOptions) (int, error) {
	workers := opt.Workers
	if workers < 0 {
		return 0, fmt.Errorf("fault: SimOptions.Workers = %d is invalid (0 = GOMAXPROCS, 1 = serial)", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := c.Remaining(); workers > 1 && n < workers*minFaultsPerWorker {
		workers = n / minFaultsPerWorker
		if workers < 1 {
			workers = 1
		}
	}
	return workers, nil
}

// Simulate runs the pattern stream against the campaign's remaining
// faults, dropping faults at first detection, and returns the FSR. It is
// the legacy entry point: any failure (a campaign constructed over an
// unsupported module, or a panic inside a simulation worker) aborts the
// caller with a panic. Resilient pipelines should use SimulateCtx, which
// reports failures as errors and honors cancellation.
func (c *Campaign) Simulate(stream []TimedPattern, opt SimOptions) *Report {
	rep, err := c.SimulateCtx(context.Background(), stream, opt)
	if err != nil {
		panic(err)
	}
	return rep
}

// SimulateCtx is Simulate with cancellation and failure isolation: the
// run stops early (returning ctx.Err()) when ctx is canceled, a panic in
// any simulation worker is recovered and returned as an error, and the
// campaign's fault-dropping state is only updated when the whole run
// succeeds — a failed or canceled call leaves the campaign untouched.
func (c *Campaign) SimulateCtx(ctx context.Context, stream []TimedPattern, opt SimOptions) (*Report, error) {
	if c.initErr != nil {
		return nil, fmt.Errorf("fault: campaign over %v unusable: %w", c.Module.Kind, c.initErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers, err := c.planWorkers(opt)
	if err != nil {
		return nil, err
	}
	if opt.BlockWords < 0 || opt.BlockWords > netlist.MaxBlockWords {
		return nil, fmt.Errorf("fault: SimOptions.BlockWords = %d outside [0, %d] (0 = auto)",
			opt.BlockWords, netlist.MaxBlockWords)
	}
	ordered := orderStream(stream, opt.Reverse)

	// Partition the remaining faults into shards, one per worker, each
	// grouped by lane. With one worker this is the plain serial loop.
	shards := c.partitionByLane(workers)
	simStart := time.Now()
	faultsIn := c.Remaining()

	// Dedup and pack the stimulus once, shared read-only by every shard;
	// the cone index is built here, before forking workers.
	nl := c.Module.NL
	lanes, blockW := buildLaneStreams(nl, ordered, c.laneIndex(ordered),
		laneClassUse(nl.Cone(), c.faults, shards), opt.BlockWords)
	runStats := c.streamStats(lanes, blockW)

	// Run the shards. Every worker recovers its own panics: the first
	// error or panic cancels the remaining workers and is surfaced to the
	// caller instead of killing the process.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}
	results := make([]*shardResult, workers)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					fail(fmt.Errorf("fault: simulation worker %d panicked: %v", w, v))
				}
			}()
			ev, err := nl.AcquireEvaluator(blockW)
			if err != nil {
				fail(err)
				return
			}
			defer nl.ReleaseEvaluator(ev)
			sr, err := c.simulateShardOpt(sctx, ordered, lanes, shards[w], ev)
			if err != nil {
				fail(err)
				return
			}
			results[w] = sr
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep, st := c.merge(results, ordered)
	runStats.Add(st)
	rep.Stats = runStats
	c.statsMu.Lock()
	c.stats.Add(runStats)
	c.runs++
	c.statsMu.Unlock()
	c.recordMetrics(opt, len(ordered), faultsIn, len(rep.Detections), runStats, time.Since(simStart))
	// Per-tenant usage attribution (context-carried, once per run like
	// the metrics above): only the full in-process run meters here —
	// SimulateSubset shards report stats to their coordinator, which
	// owns that aggregation and its metering.
	if u, tenant := obs.UsageFromContext(ctx); u != nil {
		u.AddFaultBlocks(tenant, runStats.Blocks)
	}
	return rep, nil
}

// orderStream returns the stream in application order: as given, or a
// reversed copy.
func orderStream(stream []TimedPattern, reverse bool) []TimedPattern {
	if !reverse {
		return stream
	}
	out := make([]TimedPattern, len(stream))
	for i, p := range stream {
		out[len(stream)-1-i] = p
	}
	return out
}

// BuildReport assembles the Fault Sim Report of a run over the ordered
// stream from its first detections, in any order: it sorts dets in place
// by (pattern, fault), takes ownership of the slice, counts detections
// per pattern and copies the stream metadata in so the FSR is
// self-contained. First detections are per-fault, so the union of any
// fault-partitioned simulation's detections — shards merged in process
// or replies from distributed workers — gives the report of one serial
// run. Every pattern index in dets must lie inside ordered.
func BuildReport(ordered []TimedPattern, dets []Detection) *Report {
	n := len(ordered)
	rep := &Report{
		NumPatterns:        n,
		DetectedPerPattern: make([]int32, n),
		Detections:         dets,
		CCs:                make([]uint64, n),
		Lanes:              make([]int16, n),
		PCs:                make([]int32, n),
		Warps:              make([]int16, n),
	}
	for i, p := range ordered {
		rep.CCs[i] = p.CC
		rep.Lanes[i] = p.Lane
		rep.PCs[i] = p.PC
		rep.Warps[i] = p.Warp
	}
	sortDetections(dets, ordered)
	for _, d := range dets {
		rep.DetectedPerPattern[d.Pattern]++
	}
	return rep
}

// laneIndex splits a stream by lane, keeping global stream indices.
// Patterns for lanes this module build does not have are left out.
func (c *Campaign) laneIndex(stream []TimedPattern) [][]int32 {
	laneIdx := make([][]int32, c.Module.Lanes)
	for i, p := range stream {
		if int(p.Lane) < len(laneIdx) {
			laneIdx[p.Lane] = append(laneIdx[p.Lane], int32(i))
		}
	}
	return laneIdx
}

// streamStats starts a run's stats with what the packed stimulus and the
// evaluator shape already tell: pattern totals before and after dedup,
// the block width, and the compiled plan's structure.
func (c *Campaign) streamStats(lanes []laneStream, blockW int) SimStats {
	var st SimStats
	for _, ls := range lanes {
		st.TotalPatterns += uint64(ls.total)
		st.UniquePatterns += uint64(ls.unique)
	}
	plan := c.Module.NL.Plan()
	st.BlockWords = uint64(blockW)
	st.PlanLevels = uint64(plan.NumLevels())
	st.PlanRuns = uint64(plan.NumRuns())
	return st
}

// merge commits the shards' detections to the campaign's fault-dropping
// state and builds the run's report from them. It returns the report and
// the shards' summed work counters.
func (c *Campaign) merge(results []*shardResult, ordered []TimedPattern) (*Report, SimStats) {
	var (
		st   SimStats
		dets []Detection
	)
	for _, sr := range results {
		if sr == nil {
			continue
		}
		dets = append(dets, sr.detections...)
		st.Add(sr.stats)
		for _, d := range sr.detections {
			c.detected[d.Fault] = true
			c.nDet++
		}
	}
	return BuildReport(ordered, dets), st
}

// Stats returns the engine counters accumulated across this campaign's
// SimulateCtx runs (SimulateSubset calls report their stats to the caller
// instead — a distributed coordinator owns that aggregation).
func (c *Campaign) Stats() SimStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

// recordMetrics publishes one SimulateCtx run's batched counters. It is
// deliberately called once per run, after the merge: the hot inner loop
// carries zero instrumentation, keeping the overhead bound (<1% of the
// simulation) independent of campaign size.
func (c *Campaign) recordMetrics(opt SimOptions, patterns, faultsIn, dropped int, stats SimStats, elapsed time.Duration) {
	m := opt.Metrics
	if m == nil {
		return
	}
	m.Counter("gpustl_fault_runs_total").Inc()
	m.Counter("gpustl_fault_patterns_simulated_total").Add(uint64(patterns))
	m.Counter("gpustl_fault_dropped_total").Add(uint64(dropped))
	m.Gauge("gpustl_fault_remaining").Set(float64(c.Remaining()))
	m.Gauge("gpustl_fault_coverage_pct").Set(c.Coverage())
	if faultsIn > 0 {
		m.Gauge("gpustl_fault_dropped_ratio").Set(float64(dropped) / float64(faultsIn))
	}
	if s := elapsed.Seconds(); s > 0 {
		m.Gauge("gpustl_fault_patterns_per_second").Set(float64(patterns) / s)
	}
	m.Histogram("gpustl_fault_sim_seconds", obs.DefLatencyBuckets()).Observe(elapsed.Seconds())
	// Engine-effectiveness counters: how much work the optimizations
	// resolved without a full propagation, and how much stimulus the
	// unique-pattern dictionary folded away.
	m.Counter("gpustl_fault_unique_patterns_total").Add(stats.UniquePatterns)
	m.Counter("gpustl_fault_evals_total").Add(stats.FaultEvals)
	m.Counter("gpustl_fault_prescreen_skips_total").Add(stats.PrescreenSkips)
	m.Counter("gpustl_fault_cone_skips_total").Add(stats.ConeSkips)
	m.Counter("gpustl_fault_propagations_total").Add(stats.Propagations)
	m.Gauge("gpustl_fault_dedup_hit_ratio").Set(stats.DedupHitRate())
	m.Gauge("gpustl_fault_prescreen_skip_ratio").Set(stats.PrescreenSkipRatio())
	m.Gauge("gpustl_fault_cone_skip_ratio").Set(stats.ConeSkipRatio())
	// Evaluator shape: the chosen block width and the compiled plan's
	// level/run structure, so dashboards can attribute throughput shifts
	// to width selection rather than guessing from pattern counts.
	m.Gauge("gpustl_fault_block_words").Set(float64(stats.BlockWords))
	m.Gauge("gpustl_fault_plan_levels").Set(float64(stats.PlanLevels))
	m.Gauge("gpustl_fault_plan_runs").Set(float64(stats.PlanRuns))
}

// shardResult carries one worker's detections, to be merged serially.
type shardResult struct {
	detections []Detection
	stats      SimStats
}

// partitionByLane splits the campaign's currently undetected faults into
// k shards, round-robin, with each shard's faults grouped by lane (the
// layout simulateShardOpt consumes). Faults for lanes the module build does
// not have are skipped, matching the simulation loop. Faults are dealt
// in cone order, so every shard's lane list comes out sorted for the
// optimized engine with no per-run sorting; results are independent of
// the deal order because first detections are per-fault.
func (c *Campaign) partitionByLane(k int) [][][]ID {
	if k < 1 {
		k = 1
	}
	shards := make([][][]ID, k)
	perLane := make([]int, c.Module.Lanes)
	order, _ := c.coneOrdering()
	for _, id := range order {
		f := &c.faults[id]
		if !c.detected[id] && int(f.Lane) < c.Module.Lanes {
			perLane[f.Lane]++
		}
	}
	for w := range shards {
		shards[w] = make([][]ID, c.Module.Lanes)
		for lane, cnt := range perLane {
			shards[w][lane] = make([]ID, 0, (cnt+k-1)/k)
		}
	}
	next := 0
	for _, id := range order {
		f := &c.faults[id]
		if c.detected[id] || int(f.Lane) >= c.Module.Lanes {
			continue
		}
		shards[next][f.Lane] = append(shards[next][f.Lane], id)
		next = (next + 1) % k
	}
	return shards
}

// PartitionRemaining splits the campaign's currently undetected faults
// into at most k shards using the same lane-grouped round-robin
// partitioning the in-process parallel simulator uses, flattened to
// plain id lists (lane-major within each shard). Empty shards are
// dropped, so fewer than k shards come back when few faults remain.
// Because first detections are per-fault, simulating the shards in any
// order — or on any mix of workers — and merging the detections yields
// the same result as one serial run.
func (c *Campaign) PartitionRemaining(k int) [][]ID {
	byLane := c.partitionByLane(k)
	out := make([][]ID, 0, k)
	for _, lanes := range byLane {
		var flat []ID
		for _, ids := range lanes {
			flat = append(flat, ids...)
		}
		if len(flat) > 0 {
			out = append(out, flat)
		}
	}
	return out
}

// SimulateSubset runs the pattern stream against an explicit subset of
// the campaign's faults, identified by master-list id, WITHOUT mutating
// campaign state: no fault dropping, no detection marks. It is the
// worker-side half of a distributed campaign — a coordinator partitions
// the fault list with PartitionRemaining, ships each subset (with the
// stream) to a worker, and merges the returned detections. ids == nil
// selects every currently undetected fault. The stream is applied in the
// order given (a coordinator that wants Reverse semantics pre-reverses
// it). Detections carry global stream indices and are sorted by
// (Pattern, Fault); faults already detected in this campaign are
// skipped. Evaluator scratch is pooled per netlist, and concurrent
// SimulateSubset calls on one campaign are safe.
//
// The returned stats are the run's engine counters (dedup hit-rate,
// pre-screen and cone skips): a distributed worker ships them back with
// its detections so the coordinator can aggregate optimization
// effectiveness across shards. The campaign's cumulative Stats stay
// untouched, like the rest of its state.
func (c *Campaign) SimulateSubset(ctx context.Context, stream []TimedPattern, ids []ID) ([]Detection, SimStats, error) {
	if c.initErr != nil {
		return nil, SimStats{}, fmt.Errorf("fault: campaign over %v unusable: %w", c.Module.Kind, c.initErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, SimStats{}, err
	}
	if ids == nil {
		for id := range c.faults {
			if !c.detected[id] {
				ids = append(ids, ID(id))
			}
		}
	}
	laneFaults := make([][]ID, c.Module.Lanes)
	for _, id := range ids {
		if id < 0 || int(id) >= len(c.faults) {
			return nil, SimStats{}, fmt.Errorf("fault: SimulateSubset: id %d outside master list (%d faults)",
				id, len(c.faults))
		}
		f := c.faults[id]
		if c.detected[id] || int(f.Lane) >= c.Module.Lanes {
			continue
		}
		laneFaults[f.Lane] = append(laneFaults[f.Lane], id)
	}
	nl := c.Module.NL
	lanes, blockW := buildLaneStreams(nl, stream, c.laneIndex(stream),
		laneClassUse(nl.Cone(), c.faults, [][][]ID{laneFaults}), 0)
	stats := c.streamStats(lanes, blockW)
	// Evaluators come from the netlist's per-width pool, so the wide
	// scratch arrays survive campaign churn.
	ev, err := nl.AcquireEvaluator(blockW)
	if err != nil {
		return nil, SimStats{}, err
	}
	defer nl.ReleaseEvaluator(ev)
	sr, err := c.simulateShardOpt(ctx, stream, lanes, laneFaults, ev)
	if err != nil {
		return nil, SimStats{}, err
	}
	stats.Add(sr.stats)
	sortDetections(sr.detections, stream)
	return sr.detections, stats, nil
}

// simulateShardOpt is the fault-serial shard walker, one shape for every
// block width W. It consumes the pre-packed deduplicated lane streams
// (so there is no per-shard input clearing or packing), orders each
// lane's faults by fan-out cone, and resolves most fault×block visits
// without propagating anything — via the unchanged-cone test (no primary
// input in the fault's detection support changed since an earlier block,
// so that block's zero detection mask carries over) or the activation
// pre-screen (the site's local delta is zero on every valid pattern, and
// detection is a bitwise subset of it). Visits that survive both tests
// combine the delta with the evaluator's memoized per-block
// observability row (Evaluator.ObsW) instead of propagating: only
// fan-out stems fill the memo with a real cone walk, which every fault
// in the stem's fan-out-free region then shares. The inner loop
// allocates nothing.
//
// The per-visit work stays word-granular on purpose: the visit scans
// the block's 64-pattern words in order for the first active word
// (SiteOpFirstActive) and, only from there, for the first word whose
// delta meets the observability row (SiteOpDetectFrom). Word order
// equals stream order, so the earliest set bit at any width names the
// earliest unique pattern — and a fault that dies in its first active
// word pays one word of work, not W, which is what makes wide blocks a
// win on real streams where most faults drop almost immediately. A
// visit whose delta is zero across every valid word is a prescreen skip;
// anything else is one propagation.
//
// Detections are byte-identical to the reference engine's on the
// original stream: a duplicate pattern can never be a first detection
// (its earlier twin detects first), gidx maps every unique slot back to
// the earliest original stream index, and both skip rules only ever
// elide provably zero masks. A fault leaves the walk at its first
// detection: later patterns cannot produce another first detection.
func (c *Campaign) simulateShardOpt(ctx context.Context, ordered []TimedPattern, lanes []laneStream,
	laneFaults [][]ID, ev *netlist.Evaluator) (*shardResult, error) {

	sr := &shardResult{}
	ci := c.Module.NL.Cone()
	w := ev.BlockWords()

	// The walk buffer is the shard's largest allocation (one entry per
	// undetected fault, rewritten per lane); recycle it across campaigns.
	walk, _ := walkBufPool.Get().([]walkFault)
	defer func() { walkBufPool.Put(walk[:0]) }() //nolint:staticcheck // slice header boxing is fine here
	mask := make([]uint64, w)                    // valid-pattern mask of the current block
	for lane := range lanes {
		ls := &lanes[lane]
		remaining := laneFaults[lane]
		if len(ls.blocks) == 0 || len(remaining) == 0 {
			continue
		}
		c.sortByCone(remaining)
		walk = c.buildWalk(walk, remaining, ci)
		n := len(walk)
		for b := range ls.blocks {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			blk := &ls.blocks[b]
			if err := ev.Run(blk.inputs); err != nil {
				return nil, err
			}
			sr.stats.Blocks++
			sr.stats.FaultEvals += uint64(n)
			nv := len(blk.gidx)
			words := w // valid words; words-1 may be partial
			for j := range mask {
				mask[j] = ^uint64(0)
			}
			if nv < 64*w {
				words = (nv + 63) / 64
				if rem := nv % 64; rem > 0 {
					mask[words-1] = 1<<uint(rem) - 1
				}
			}

			kept := 0
			for i := 0; i < n; i++ {
				f := &walk[i]
				if blk.skip != nil {
					if cl := f.class; blk.skip[cl>>6]>>(uint(cl)&63)&1 == 1 {
						sr.stats.ConeSkips++
						walk[kept] = *f
						kept++
						continue
					}
				}
				j0, d0 := ev.SiteOpFirstActive(f.op, mask, words)
				if j0 < 0 {
					sr.stats.PrescreenSkips++
					walk[kept] = *f
					kept++
					continue
				}
				sr.stats.Propagations++
				obs := ev.ObsW(f.gate)
				first := -1
				if x := d0 & obs[j0]; x != 0 {
					first = j0*64 + bits.TrailingZeros64(x)
				} else if j, x := ev.SiteOpDetectFrom(f.op, mask, obs, j0+1, words); j >= 0 {
					first = j*64 + bits.TrailingZeros64(x)
				}
				if first < 0 {
					walk[kept] = *f
					kept++
					continue
				}
				gi := blk.gidx[first]
				sr.detections = append(sr.detections, Detection{
					Fault: f.id, Pattern: gi, CC: ordered[gi].CC,
				})
			}
			n = kept
			walk = walk[:n]
			if n == 0 {
				break
			}
		}
	}
	return sr, nil
}

// walkFault is one live fault of a shard walk: its id with the site's
// compiled activation op, gate (the observability lookup key) and cone
// class (the class-skip key) hoisted into one contiguous record, so the
// inner loop touches sequential memory and dropping a fault is a single
// struct copy.
type walkFault struct {
	id    ID
	gate  int32
	class int32
	op    netlist.SiteOp
}

// walkBufPool recycles walk buffers across shards and campaigns.
var walkBufPool sync.Pool

// buildWalk fills dst (reusing its capacity) with the walk records of a
// shard's remaining faults, in the order given.
func (c *Campaign) buildWalk(dst []walkFault, remaining []ID, ci *netlist.ConeInfo) []walkFault {
	if cap(dst) < len(remaining) {
		dst = make([]walkFault, 0, len(remaining))
	}
	dst = dst[:0]
	for _, id := range remaining {
		site := c.faults[id].Site
		cl := int32(0)
		if g := site.Gate; g >= 0 && int(g) < ci.NumGatesIndexed() {
			cl = ci.ClassOf(g)
		}
		dst = append(dst, walkFault{
			id:    id,
			gate:  site.Gate,
			class: cl,
			op:    netlist.CompileSiteOp(c.Module.NL, site),
		})
	}
	return dst
}

// sortDetections orders detections by (pattern, fault) — the report
// contract — via packed uint64 keys instead of an interface-based sort,
// rebuilding each entry's cc from the stream it indexes into.
func sortDetections(dets []Detection, stream []TimedPattern) {
	if len(dets) < 2 {
		return
	}
	// Faults are non-negative small ints: pack (pattern, fault) into the
	// fewest bits the largest fault id needs, so the radix sort's
	// digit-skip drops the unused high bytes.
	maxF := ID(0)
	for _, d := range dets {
		if d.Fault > maxF {
			maxF = d.Fault
		}
	}
	fBits := uint(bits.Len(uint(maxF)))
	keys := make([]uint64, len(dets))
	for i, d := range dets {
		keys[i] = uint64(uint32(d.Pattern))<<fBits | uint64(uint32(d.Fault))
	}
	radixSortUint64(keys)
	fMask := uint64(1)<<fBits - 1
	for i, k := range keys {
		p := int32(k >> fBits)
		dets[i] = Detection{Fault: ID(uint32(k & fMask)), Pattern: p, CC: stream[p].CC}
	}
}
