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
// detections to the campaign unless NoDrop, exactly like SimulateCtx.
// Reverse, NoDrop and RecordActivations are honored; BlockWords and
// Workers shape an engine the reference does not have and are ignored.
func (c *Campaign) simulateReference(ctx context.Context, stream []TimedPattern, opt SimOptions) (*Report, error) {
	if c.initErr != nil {
		return nil, c.initErr
	}
	ev, err := netlist.NewEvaluator(c.Module.NL)
	if err != nil {
		return nil, err
	}
	ordered := orderStream(stream, opt.Reverse)
	rep := newReport(ordered, opt.RecordActivations)
	laneIdx := c.laneIndex(ordered)
	sr, err := c.simulateShard(ctx, ordered, laneIdx, c.partitionByLane(1)[0], ev, opt)
	if err != nil {
		return nil, err
	}
	plan := c.Module.NL.Plan()
	st := SimStats{BlockWords: 1, PlanLevels: uint64(plan.NumLevels()), PlanRuns: uint64(plan.NumRuns())}
	for _, idxs := range laneIdx {
		st.TotalPatterns += uint64(len(idxs))
	}
	st.UniquePatterns = st.TotalPatterns // nothing deduplicated
	st.Add(c.merge(rep, []*shardResult{sr}, ordered, opt.NoDrop))
	rep.Stats = st
	return rep, nil
}

// simulateShard runs the fault-serial, 64-pattern-parallel loop for one
// shard of the fault list on a scalar evaluator: every original pattern,
// every remaining fault, one full fan-out-cone evaluation per
// fault×block (FaultDetect). Under NoDrop faults stay in the walk after
// their first detection, so activations are counted for every lane fault
// on every pattern. Cancellation is checked once per 64-pattern block.
func (c *Campaign) simulateShard(ctx context.Context, ordered []TimedPattern, laneIdx [][]int32,
	laneFaults [][]ID, ev *netlist.Evaluator, opt SimOptions) (*shardResult, error) {

	sr := &shardResult{perPattern: make([]int32, len(ordered))}
	if opt.RecordActivations {
		sr.activated = make([]int32, len(ordered))
	}
	inputs := make([]uint64, len(c.Module.NL.Inputs))

	var seen []uint64 // NoDrop: first-detection-recorded bitset per fault id
	if opt.NoDrop {
		seen = make([]uint64, (len(c.faults)+63)/64)
	}

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
				if opt.RecordActivations {
					act := activationMask(ev, c.Module.NL, f.Site)
					if n < 64 {
						act &= (1 << uint(n)) - 1
					}
					for s := 0; s < n; s++ {
						if act>>uint(s)&1 == 1 {
							sr.activated[idxs[blk+s]]++
						}
					}
				}
				if det == 0 {
					remaining[w] = id
					w++
					continue
				}
				if opt.NoDrop {
					if seen[uint32(id)>>6]>>(uint32(id)&63)&1 == 0 {
						seen[uint32(id)>>6] |= 1 << (uint32(id) & 63)
						first := bits.TrailingZeros64(det)
						gi := idxs[blk+first]
						sr.perPattern[gi]++
						sr.detections = append(sr.detections, Detection{
							Fault: id, Pattern: gi, CC: ordered[gi].CC,
						})
					}
					remaining[w] = id
					w++
					continue
				}
				first := bits.TrailingZeros64(det)
				gi := idxs[blk+first]
				sr.perPattern[gi]++
				sr.detections = append(sr.detections, Detection{
					Fault: id, Pattern: gi, CC: ordered[gi].CC,
				})
			}
			remaining = remaining[:w]
			if len(remaining) == 0 && !opt.RecordActivations {
				break
			}
		}
	}
	return sr, nil
}

// activationMask computes, for the evaluator's current block, on which
// patterns the fault site's stuck value differs from its net's
// fault-free value.
func activationMask(ev *netlist.Evaluator, nl *netlist.Netlist, s netlist.FaultSite) uint64 {
	var sa uint64
	if s.SA1 {
		sa = ^uint64(0)
	}
	if s.Pin < 0 {
		return ev.Value(s.Gate) ^ sa
	}
	in := nl.Gates[s.Gate].In[s.Pin]
	return ev.Value(in) ^ sa
}
