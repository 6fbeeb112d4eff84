package dist

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"gpustl/internal/fault"
)

// TestAnyPartitionMatchesSerial is the distribution-safety property the
// whole package rests on: for ANY partition of the remaining fault list
// into k shards — not just the lane-grouped one the coordinator uses —
// running each shard as a ShardRequest through a Local worker (the
// worker's production path) and merging the detections, mapped back
// through the shard, yields the same detected-ID set and a Report with
// identical Detections ordering as one serial SimulateCtx run. First
// detections are per-fault, so shard placement cannot matter.
func TestAnyPartitionMatchesSerial(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(61)), m.Lanes, 768)

	serial := newSPCampaign(t, m, 1000, 67)
	wantRep, err := serial.SimulateCtx(context.Background(), stream, fault.SimOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := serial.DetectedIDs()

	camp := newSPCampaign(t, m, 1000, 67)
	worker := NewLocal("w")
	for trial, k := range []int{1, 2, 3, 5, 8} {
		r := rand.New(rand.NewSource(int64(100 + trial)))
		// A uniformly random partition: each fault lands in a random
		// shard, with no lane grouping and no balancing whatsoever.
		shards := make([][]fault.ID, k)
		for i := 0; i < camp.Total(); i++ {
			s := r.Intn(k)
			shards[s] = append(shards[s], fault.ID(i))
		}
		var merged []fault.Detection
		for s, ids := range shards {
			req := &ShardRequest{Shard: s, Module: m.Kind, Lanes: m.Lanes, Stream: stream}
			for _, id := range ids {
				req.Faults = append(req.Faults, camp.Faults()[id])
			}
			res, err := worker.Simulate(context.Background(), req)
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			for _, d := range res.Detections {
				merged = append(merged, fault.Detection{Fault: ids[d.Fault], Pattern: d.Pattern, CC: d.CC})
			}
		}
		rep := fault.BuildReport(stream, merged)
		if !reflect.DeepEqual(rep.Detections, wantRep.Detections) {
			t.Fatalf("k=%d: merged Detections differ from serial (%d vs %d)",
				k, len(rep.Detections), len(wantRep.Detections))
		}
		if !reflect.DeepEqual(rep.DetectedPerPattern, wantRep.DetectedPerPattern) {
			t.Fatalf("k=%d: per-pattern counts differ", k)
		}
		ids := make([]fault.ID, 0, len(merged))
		for _, d := range merged {
			ids = append(ids, d.Fault)
		}
		if got := sortedIDs(ids); !reflect.DeepEqual(got, wantIDs) {
			t.Fatalf("k=%d: detected-ID sets differ (%d vs %d)", k, len(got), len(wantIDs))
		}
	}
}

func sortedIDs(ids []fault.ID) []fault.ID {
	out := append([]fault.ID(nil), ids...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestPartitionRemainingCovers checks the coordinator's actual
// partitioner: every remaining fault appears in exactly one shard, and
// detected faults in none.
func TestPartitionRemainingCovers(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(62)), m.Lanes, 256)
	camp := newSPCampaign(t, m, 600, 71)
	// Drop a few faults first.
	if _, err := camp.SimulateCtx(context.Background(), stream, fault.SimOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 2, 4, 9} {
		parts := camp.PartitionRemaining(k)
		seen := map[fault.ID]bool{}
		for _, ids := range parts {
			if len(ids) == 0 {
				t.Fatalf("k=%d: empty shard emitted", k)
			}
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("k=%d: fault %d in two shards", k, id)
				}
				if camp.IsDetected(id) {
					t.Fatalf("k=%d: detected fault %d partitioned", k, id)
				}
				seen[id] = true
			}
		}
		if len(seen) != camp.Remaining() {
			t.Fatalf("k=%d: partition covers %d faults, campaign has %d remaining",
				k, len(seen), camp.Remaining())
		}
	}
}
