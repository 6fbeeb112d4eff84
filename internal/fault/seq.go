package fault

import (
	"fmt"
	"sort"

	"gpustl/internal/circuits"
	"gpustl/internal/netlist"
)

// SeqCampaign fault-simulates a *sequential* module (one with flip-flops,
// like the pipeline register bank): the pattern stream is one ordered test
// sequence, faulty state diverges across clock cycles, and detection is a
// primary-output discrepancy at any cycle. Machines run 63 faults at a
// time in parallel with the fault-free reference (parallel-fault
// sequential simulation); stem (gate-output) stuck-at faults only, the
// standard model for register banks.
type SeqCampaign struct {
	Module *circuits.Module

	faults   []Fault
	detected []bool
	nDet     int
	ev       *netlist.SeqEvaluator
}

// SeqStemFaults enumerates the stem stuck-at faults of a netlist (the
// fault universe a SeqCampaign targets).
func SeqStemFaults(nl *netlist.Netlist) []Fault {
	var out []Fault
	for id := int32(0); id < int32(len(nl.Gates)); id++ {
		k := nl.Gates[id].Kind
		if k == netlist.KConst0 || k == netlist.KConst1 {
			continue
		}
		out = append(out,
			Fault{Site: netlist.FaultSite{Gate: id, Pin: -1, SA1: false}},
			Fault{Site: netlist.FaultSite{Gate: id, Pin: -1, SA1: true}},
		)
	}
	return out
}

// NewSeqCampaign creates a campaign over the module's stem fault list.
// Sequential modules are single-lane.
func NewSeqCampaign(m *circuits.Module) (*SeqCampaign, error) {
	if m.NL.NumDFFs() == 0 {
		return nil, fmt.Errorf("fault: module %v has no flip-flops; use Campaign", m.Kind)
	}
	faults := SeqStemFaults(m.NL)
	return &SeqCampaign{
		Module:   m,
		faults:   faults,
		detected: make([]bool, len(faults)),
		ev:       netlist.NewSeqEvaluator(m.NL),
	}, nil
}

// Faults returns the campaign's fault list (do not mutate).
func (c *SeqCampaign) Faults() []Fault { return c.faults }

// Total returns the fault-list size.
func (c *SeqCampaign) Total() int { return len(c.faults) }

// Detected returns how many faults have been detected so far.
func (c *SeqCampaign) Detected() int { return c.nDet }

// Coverage returns the cumulative coverage in percent.
func (c *SeqCampaign) Coverage() float64 {
	if len(c.faults) == 0 {
		return 0
	}
	return 100 * float64(c.nDet) / float64(len(c.faults))
}

// Reset clears all detections.
func (c *SeqCampaign) Reset() {
	for i := range c.detected {
		c.detected[i] = false
	}
	c.nDet = 0
}

// CoverageByGroup aggregates the sequential campaign per functional group
// of the netlist, like Campaign.CoverageByGroup.
func (c *SeqCampaign) CoverageByGroup() []GroupCoverage {
	byName := map[string]*GroupCoverage{}
	var order []string
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
	sort.Strings(order)
	out := make([]GroupCoverage, 0, len(order))
	for _, g := range order {
		out = append(out, *byName[g])
	}
	return out
}

// Simulate replays the stream as one test sequence (in cc order) against
// every remaining fault and returns a Report compatible with the
// combinational campaign's: per-pattern first-detection counts plus the
// individual detections, ready for the Fig. 2 labeling join. An evaluator
// failure is returned as an error with the campaign state untouched for
// the failing batch.
func (c *SeqCampaign) Simulate(stream []TimedPattern) (*Report, error) {
	ordered := append([]TimedPattern(nil), stream...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].CC < ordered[j].CC })

	rep := &Report{
		Stream:             ordered,
		DetectedPerPattern: make([]int32, len(ordered)),
	}

	var remaining []ID
	for id := range c.faults {
		if !c.detected[id] {
			remaining = append(remaining, ID(id))
		}
	}

	numIn := len(c.Module.NL.Inputs)
	inputs := make([]bool, numIn)
	for batch := 0; batch < len(remaining); batch += 63 {
		end := batch + 63
		if end > len(remaining) {
			end = len(remaining)
		}
		ids := remaining[batch:end]
		sites := make([]netlist.FaultSite, len(ids))
		for i, id := range ids {
			sites[i] = c.faults[id].Site
		}
		if err := c.ev.LoadFaults(sites); err != nil {
			// Provably internal: SeqStemFaults only emits stem faults and
			// batches are capped at 63, the two conditions LoadFaults checks.
			panic(err)
		}
		// Every fault in the batch detected → the rest of the sequence
		// cannot add a first detection for this batch; stop replaying it.
		full := (uint64(1)<<uint(len(ids)) - 1) << 1
		var seen uint64
		for si, tp := range ordered {
			if seen == full {
				break
			}
			for i := 0; i < numIn; i++ {
				inputs[i] = tp.Pat.Bit(i)
			}
			det, err := c.ev.Step(inputs)
			if err != nil {
				return nil, fmt.Errorf("fault: sequential simulation of %v: %w", c.Module.Kind, err)
			}
			fresh := det &^ seen
			if fresh == 0 {
				continue
			}
			seen |= fresh
			for k := 1; k <= len(ids); k++ {
				if fresh>>uint(k)&1 == 0 {
					continue
				}
				id := ids[k-1]
				c.detected[id] = true
				c.nDet++
				rep.DetectedPerPattern[si]++
				rep.Detections = append(rep.Detections, Detection{
					Fault: id, Pattern: int32(si), CC: tp.CC,
				})
			}
		}
	}
	sort.Slice(rep.Detections, func(i, j int) bool {
		if rep.Detections[i].Pattern != rep.Detections[j].Pattern {
			return rep.Detections[i].Pattern < rep.Detections[j].Pattern
		}
		return rep.Detections[i].Fault < rep.Detections[j].Fault
	})
	return rep, nil
}
