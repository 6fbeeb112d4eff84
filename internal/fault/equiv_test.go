package fault

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"gpustl/internal/circuits"
)

// reverseStream returns a reversed copy of the stream, the order a
// reverse-order run applies it in.
func reverseStream(stream []TimedPattern) []TimedPattern {
	out := slices.Clone(stream)
	slices.Reverse(out)
	return out
}

// dupStream doubles a stream so every pattern occurs at least twice
// (fresh clock cycles): the engine packs a stream as given, so a stream
// with repeats must still give the reference's report.
func dupStream(stream []TimedPattern) []TimedPattern {
	out := make([]TimedPattern, 0, 2*len(stream))
	var cc uint64
	for _, p := range stream {
		q := p
		q.CC = cc
		out = append(out, q)
		cc += 2
	}
	for _, p := range stream {
		q := p
		q.CC = cc
		out = append(out, q)
		cc += 2
	}
	return out
}

// simulate runs the stream on c through the test-only reference engine
// or through SimulateCtx (the shard walker), failing the test on error.
func simulate(t testing.TB, c *Campaign, reference bool, stream []TimedPattern, opt SimOptions) *Report {
	t.Helper()
	run := c.SimulateCtx
	if reference {
		run = c.simulateReference
	}
	rep, err := run(context.Background(), stream, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestOptimizedMatchesReference is the engine equivalence harness: for
// every option combination the optimized path supports, the detections,
// per-pattern counts and campaign drop state must be byte-identical to
// the reference engine — same fault, same first-detecting pattern index,
// same clock cycle. Rows run the unique random stream, reversed for the
// reverse rows; the doubled rows run it with every pattern repeated.
func TestOptimizedMatchesReference(t *testing.T) {
	cases := []struct {
		name    string
		mod     func(testing.TB) *circuits.Module
		opt     SimOptions
		reverse bool // apply the stream in reverse order
		doubled bool // every pattern twice (dupStream)
		subset  bool // campaign over an explicit half of the sample
	}{
		{name: "du_serial", mod: duModule},
		{name: "du_reverse", mod: duModule, reverse: true},
		{name: "du_doubled", mod: duModule, doubled: true},
		{name: "sp_serial", mod: spModule},
		{name: "sp_reverse", mod: spModule, reverse: true},
		{name: "sp_workers4", mod: spModule, opt: SimOptions{Workers: 4}},
		{name: "sp_reverse_workers3", mod: spModule, opt: SimOptions{Workers: 3}, reverse: true},
		{name: "sp_doubled_reverse_workers3", mod: spModule, opt: SimOptions{Workers: 3}, reverse: true, doubled: true},
		// Every supported block width, serial and sharded: detections must
		// be byte-identical to the scalar reference at any W.
		{name: "du_w1", mod: duModule, opt: SimOptions{BlockWords: 1}},
		{name: "du_w4", mod: duModule, opt: SimOptions{BlockWords: 4}},
		{name: "du_w8", mod: duModule, opt: SimOptions{BlockWords: 8}},
		{name: "du_w16", mod: duModule, opt: SimOptions{BlockWords: 16}},
		{name: "du_w16_doubled", mod: duModule, opt: SimOptions{BlockWords: 16}, doubled: true},
		{name: "sp_w4", mod: spModule, opt: SimOptions{BlockWords: 4}},
		{name: "sp_w8_workers4", mod: spModule, opt: SimOptions{BlockWords: 8, Workers: 4}},
		{name: "sp_w16_reverse", mod: spModule, opt: SimOptions{BlockWords: 16}, reverse: true},
		// A distributed shard: a throwaway campaign over an explicit
		// fault list, simulated serially.
		{name: "sp_subset_workers1", mod: spModule, opt: SimOptions{Workers: 1}, subset: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.mod(t)
			r := rand.New(rand.NewSource(99))
			var stream []TimedPattern
			if m.Lanes > 1 {
				stream = randomSPStream(r, m.Lanes, 300)
			} else {
				stream = randomDUStream(r, 300)
			}
			if tc.doubled {
				stream = dupStream(stream)
			}
			if tc.reverse {
				stream = reverseStream(stream)
			}

			run := func(reference bool) (*Report, []ID) {
				c := NewCampaign(m)
				c.SampleFaults(1500, 11)
				if tc.subset {
					var sub []Fault
					for i, f := range c.Faults() {
						if i%2 == 0 {
							sub = append(sub, f)
						}
					}
					c = NewCampaignWithFaults(m, sub)
				}
				rep := simulate(t, c, reference, stream, tc.opt)
				return rep, c.DetectedIDs()
			}
			ref, refDet := run(true)
			opt, optDet := run(false)

			if len(ref.Detections) != len(opt.Detections) {
				t.Fatalf("detection counts differ: reference %d, optimized %d",
					len(ref.Detections), len(opt.Detections))
			}
			for i := range ref.Detections {
				if ref.Detections[i] != opt.Detections[i] {
					t.Fatalf("detection %d differs: reference %+v, optimized %+v",
						i, ref.Detections[i], opt.Detections[i])
				}
			}
			for i := range ref.DetectedPerPattern {
				if ref.DetectedPerPattern[i] != opt.DetectedPerPattern[i] {
					t.Fatalf("per-pattern count differs at %d: reference %d, optimized %d",
						i, ref.DetectedPerPattern[i], opt.DetectedPerPattern[i])
				}
			}
			if len(refDet) != len(optDet) {
				t.Fatalf("campaign drop state differs: reference %d detected, optimized %d",
					len(refDet), len(optDet))
			}
			for i := range refDet {
				if refDet[i] != optDet[i] {
					t.Fatalf("detected id %d differs: reference %d, optimized %d",
						i, refDet[i], optDet[i])
				}
			}
			// The optimized engine must actually have run, and packs the
			// stream as given.
			if opt.Stats.FaultEvals == 0 {
				t.Fatalf("optimized run evaluated no faults: %+v", opt.Stats)
			}
			if n := uint64(len(stream)); opt.Stats.TotalPatterns != n || opt.Stats.UniquePatterns != n {
				t.Fatalf("optimized run packed %d (%d unique) of %d patterns",
					opt.Stats.TotalPatterns, opt.Stats.UniquePatterns, n)
			}
		})
	}
}
