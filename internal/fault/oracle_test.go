package fault

import (
	"context"
	"math/bits"

	"gpustl/internal/netlist"
)

// The reference engine: the straightforward fault simulator the shard
// walker (simulateShardOpt) is held to by the equivalence tests. No
// activation pre-screen, no unique-pattern dedup, no cone-aware
// scheduling or observability memo — one scalar evaluator, every
// original pattern, one event-driven cone propagation per fault×block.
// It lives in test code only: nothing outside the tests can reach it.

// simulateReference runs the stream against the campaign's remaining
// faults with the reference engine and returns the FSR, committing
// detections to the campaign exactly like SimulateCtx. Reverse is
// honored; BlockWords and Workers shape an engine the reference does not
// have and are ignored.
func (c *Campaign) simulateReference(ctx context.Context, stream []TimedPattern, opt SimOptions) (*Report, error) {
	if c.initErr != nil {
		return nil, c.initErr
	}
	ev, err := netlist.NewEvaluator(c.Module.NL)
	if err != nil {
		return nil, err
	}
	ordered := orderStream(stream, opt.Reverse)
	laneIdx := c.laneIndex(ordered)
	sr, err := c.simulateShard(ctx, ordered, laneIdx, c.partitionByLane(1)[0], ev)
	if err != nil {
		return nil, err
	}
	plan := c.Module.NL.Plan()
	st := SimStats{BlockWords: 1, PlanLevels: uint64(plan.NumLevels()), PlanRuns: uint64(plan.NumRuns())}
	for _, idxs := range laneIdx {
		st.TotalPatterns += uint64(len(idxs))
	}
	st.UniquePatterns = st.TotalPatterns // nothing deduplicated
	rep, runStats := c.merge([]*shardResult{sr}, ordered)
	st.Add(runStats)
	rep.Stats = st
	return rep, nil
}

// simulateShard runs the fault-serial, 64-pattern-parallel loop for one
// shard of the fault list on a scalar evaluator: every original pattern,
// every remaining fault, one full fan-out-cone evaluation per
// fault×block (FaultDetect). Cancellation is checked once per 64-pattern
// block.
func (c *Campaign) simulateShard(ctx context.Context, ordered []TimedPattern, laneIdx [][]int32,
	laneFaults [][]ID, ev *netlist.Evaluator) (*shardResult, error) {

	sr := &shardResult{}
	inputs := make([]uint64, len(c.Module.NL.Inputs))

	for lane := 0; lane < c.Module.Lanes; lane++ {
		idxs := laneIdx[lane]
		remaining := laneFaults[lane]
		if len(idxs) == 0 || len(remaining) == 0 {
			continue
		}
		for blk := 0; blk < len(idxs); blk += 64 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			end := blk + 64
			if end > len(idxs) {
				end = len(idxs)
			}
			n := end - blk
			for i := range inputs {
				inputs[i] = 0
			}
			for s := 0; s < n; s++ {
				ordered[idxs[blk+s]].Pat.ApplyTo(inputs, uint(s))
			}
			if err := ev.Run(inputs); err != nil {
				return nil, err
			}
			sr.stats.Blocks++

			w := 0
			for _, id := range remaining {
				f := c.faults[id]
				sr.stats.FaultEvals++
				sr.stats.Propagations++
				det := ev.FaultDetect(f.Site)
				if n < 64 {
					det &= (1 << uint(n)) - 1
				}
				if det == 0 {
					remaining[w] = id
					w++
					continue
				}
				first := bits.TrailingZeros64(det)
				gi := idxs[blk+first]
				sr.detections = append(sr.detections, Detection{
					Fault: id, Pattern: gi, CC: ordered[gi].CC,
				})
			}
			remaining = remaining[:w]
			if len(remaining) == 0 {
				break
			}
		}
	}
	return sr, nil
}
