package fault

import (
	"context"
	"math/rand"
	"testing"

	"gpustl/internal/circuits"
)

// dupStream doubles a stream so every pattern occurs at least twice
// (fresh clock cycles), forcing the unique-pattern dictionary to do real
// work during the equivalence runs.
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
// same clock cycle.
func TestOptimizedMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		mod  func(testing.TB) *circuits.Module
		opt  SimOptions
	}{
		{"du_serial", duModule, SimOptions{}},
		{"du_reverse", duModule, SimOptions{Reverse: true}},
		{"sp_serial", spModule, SimOptions{}},
		{"sp_reverse", spModule, SimOptions{Reverse: true}},
		{"sp_workers4", spModule, SimOptions{Workers: 4}},
		{"sp_reverse_workers3", spModule, SimOptions{Reverse: true, Workers: 3}},
		// Every supported block width, serial and sharded: detections must
		// be byte-identical to the scalar reference at any W.
		{"du_w1", duModule, SimOptions{BlockWords: 1}},
		{"du_w4", duModule, SimOptions{BlockWords: 4}},
		{"du_w8", duModule, SimOptions{BlockWords: 8}},
		{"du_w16", duModule, SimOptions{BlockWords: 16}},
		{"sp_w4", spModule, SimOptions{BlockWords: 4}},
		{"sp_w8_workers4", spModule, SimOptions{BlockWords: 8, Workers: 4}},
		{"sp_w16_reverse", spModule, SimOptions{BlockWords: 16, Reverse: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.mod(t)
			r := rand.New(rand.NewSource(99))
			var stream []TimedPattern
			if m.Lanes > 1 {
				stream = dupStream(randomSPStream(r, m.Lanes, 300))
			} else {
				stream = dupStream(randomDUStream(r, 300))
			}

			run := func(reference bool) (*Report, []ID) {
				c := NewCampaign(m)
				c.SampleFaults(1500, 11)
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
			// The optimized engine must actually have optimized: on a
			// doubled stream at least half the patterns are duplicates.
			if hr := opt.Stats.DedupHitRate(); hr < 0.5 {
				t.Fatalf("optimized run deduplicated only %.2f of a doubled stream", hr)
			}
			if ref.Stats.DedupHitRate() != 0 {
				t.Fatalf("reference engine reported dedup %v, want 0", ref.Stats.DedupHitRate())
			}
		})
	}
}

// TestSimulateSubsetMatchesReference verifies the subset entry point (the
// one distributed shards use) against the reference engine run over an
// equivalent explicit-fault campaign.
func TestSimulateSubsetMatchesReference(t *testing.T) {
	m := spModule(t)
	r := rand.New(rand.NewSource(41))
	stream := dupStream(randomSPStream(r, m.Lanes, 256))

	c := NewCampaign(m)
	c.SampleFaults(1200, 13)
	all := c.Faults()
	ids := make([]ID, 0, len(all)/2)
	for id := 0; id < len(all); id += 2 {
		ids = append(ids, ID(id))
	}
	dets, stats, err := c.SimulateSubsetStats(context.Background(), stream, ids)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FaultEvals == 0 || stats.DedupHitRate() < 0.5 {
		t.Fatalf("subset run did not exercise the optimized engine: %+v", stats)
	}

	// Reference: a throwaway campaign holding exactly the subset faults,
	// run through the reference engine. Detection ids map through the
	// subset.
	sub := make([]Fault, len(ids))
	for i, id := range ids {
		sub[i] = all[id]
	}
	ref := simulate(t, NewCampaignWithFaults(m, sub), true, stream, SimOptions{})
	if len(ref.Detections) != len(dets) {
		t.Fatalf("detection counts differ: reference %d, subset %d", len(ref.Detections), len(dets))
	}
	for i, rd := range ref.Detections {
		want := Detection{Fault: ids[rd.Fault], Pattern: rd.Pattern, CC: rd.CC}
		if dets[i] != want {
			t.Fatalf("detection %d differs: subset %+v, reference-mapped %+v", i, dets[i], want)
		}
	}
}

// TestActivationsMatchReference pins the activation counts of the shard
// walker to the reference engine's. Under NoDrop the reference walks
// every lane fault over every original pattern, so its counts are
// exactly ActivatedPerPattern's definition; the walker counts each
// unique pattern once and scatters the count to its duplicates, which
// the doubled streams force. Every block width, serial and sharded.
func TestActivationsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	sp := spModule(t)
	spCamp := NewCampaign(sp)
	spCamp.SampleFaults(1500, 17)

	// Only faults the first 64 patterns detect: every fault drops in the
	// first W=1 block, and the walker must still sweep the later blocks
	// for their counts.
	du := duModule(t)
	duStream := dupStream(randomDUStream(r, 300))
	probe := NewCampaign(du)
	var early []Fault
	for _, d := range probe.Simulate(duStream[:64], SimOptions{}).Detections {
		early = append(early, probe.Faults()[d.Fault])
	}

	cases := []struct {
		name   string
		c      *Campaign
		stream []TimedPattern
	}{
		{"sp", spCamp, dupStream(randomSPStream(r, sp.Lanes, 300))},
		{"du_early_drop", NewCampaignWithFaults(du, early), duStream},
	}
	opt := SimOptions{RecordActivations: true, NoDrop: true}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := simulate(t, tc.c, true, tc.stream, opt)
			var total int64
			for _, n := range ref.ActivatedPerPattern {
				total += int64(n)
			}
			if total == 0 {
				t.Fatal("reference recorded no activations")
			}
			for _, w := range []int{0, 1, 4, 8, 16} {
				for _, workers := range []int{1, 3} {
					o := opt
					o.BlockWords, o.Workers = w, workers
					got := simulate(t, tc.c, false, tc.stream, o)
					if len(got.ActivatedPerPattern) != len(ref.ActivatedPerPattern) {
						t.Fatalf("w=%d workers=%d: %d activation counts, reference %d",
							w, workers, len(got.ActivatedPerPattern), len(ref.ActivatedPerPattern))
					}
					for i, want := range ref.ActivatedPerPattern {
						if got.ActivatedPerPattern[i] != want {
							t.Fatalf("w=%d workers=%d pattern %d: %d activations, reference %d",
								w, workers, i, got.ActivatedPerPattern[i], want)
						}
					}
					if len(got.Detections) != len(ref.Detections) {
						t.Fatalf("w=%d workers=%d: %d detections, reference %d",
							w, workers, len(got.Detections), len(ref.Detections))
					}
					for i := range ref.Detections {
						if got.Detections[i] != ref.Detections[i] {
							t.Fatalf("w=%d workers=%d detection %d: %+v, reference %+v",
								w, workers, i, got.Detections[i], ref.Detections[i])
						}
					}
				}
			}
			if tc.c.Detected() != 0 {
				t.Fatalf("NoDrop runs committed %d detections", tc.c.Detected())
			}
		})
	}
}
