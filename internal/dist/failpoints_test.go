package dist

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"gpustl/internal/failpoint"
	"gpustl/internal/fault"
)

// TestWireFailpointsStayExact arms every message-shaped dist failpoint
// at once — dropped, duplicated, reordered and delayed replies plus
// outright transport errors — against a fleet of honest workers. The
// validation/retry machinery must absorb all of it: the merged result
// stays byte-identical to a serial simulation.
func TestWireFailpointsStayExact(t *testing.T) {
	defer failpoint.Reset()
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(71)), m.Lanes, 384)

	serial := newSPCampaign(t, m, 700, 91)
	wantRep := serial.Simulate(stream, fault.SimOptions{Workers: 1})

	for name, cfg := range map[string]failpoint.Config{
		"dist.reply.drop":      {Kind: failpoint.KindDrop, Prob: 0.2, Seed: 1},
		"dist.reply.dup":       {Kind: failpoint.KindDuplicate, Prob: 0.2, Seed: 2},
		"dist.reply.reorder":   {Kind: failpoint.KindReorder, Prob: 0.3, Seed: 3},
		"dist.reply.delay":     {Kind: failpoint.KindDelay, Delay: 5 * time.Millisecond, Prob: 0.3, Seed: 4},
		"dist.transport.error": {Kind: failpoint.KindError, Prob: 0.15, Seed: 5},
	} {
		if err := failpoint.Enable(name, cfg); err != nil {
			t.Fatal(err)
		}
	}
	chaotic := WithFailpoints(NewLocal("chaotic"))
	opt := chaosOptions()
	co, err := New(opt, chaotic, NewLocal("steady"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	camp := newSPCampaign(t, m, 700, 91)
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded() {
		t.Fatalf("degraded under wire chaos: %v", res.ShardErrors)
	}
	assertSameReport(t, res.Report, wantRep)
}

// TestPingFailpointKillsAndRevives: dist.ping.error with a Times budget
// makes a worker miss enough heartbeats to be declared dead, then
// answer again — death, redistribution and revival all driven from one
// failpoint.
func TestPingFailpointKillsAndRevives(t *testing.T) {
	defer failpoint.Reset()
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(72)), m.Lanes, 256)

	serial := newSPCampaign(t, m, 500, 97)
	wantRep := serial.Simulate(stream, fault.SimOptions{Workers: 1})

	if err := failpoint.Enable("dist.ping.error", failpoint.Config{
		Kind: failpoint.KindError, Times: 4,
	}); err != nil {
		t.Fatal(err)
	}
	flaky := WithFailpoints(NewLocal("flaky"), "dist.ping.error")
	opt := fastOptions()
	opt.Shards = 6
	co, err := New(opt, flaky, NewLocal("steady"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	camp := newSPCampaign(t, m, 500, 97)
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded() {
		t.Fatalf("degraded: %v", res.ShardErrors)
	}
	assertSameReport(t, res.Report, wantRep)
}

// TestRestrictedWrapperLeavesOtherSitesAlone: a wrapper restricted to
// one failpoint must not consume trigger budget of others.
func TestRestrictedWrapperLeavesOtherSitesAlone(t *testing.T) {
	defer failpoint.Reset()
	if err := failpoint.Enable("dist.reply.drop", failpoint.Config{
		Kind: failpoint.KindDrop, Times: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// Wrapped only for ping errors: its simulate path must not consume
	// the drop budget.
	ft := WithFailpoints(NewLocal("w"), "dist.ping.error")
	req := &ShardRequest{Module: spModule(t).Kind, Stream: nil, Faults: nil}
	if _, err := ft.Simulate(context.Background(), req); err != nil {
		t.Fatalf("restricted wrapper fired a foreign failpoint: %v", err)
	}
	// An unrestricted wrapper then consumes it.
	all := WithFailpoints(NewLocal("w2"))
	if _, err := all.Simulate(context.Background(), req); err == nil {
		t.Fatal("armed drop failpoint never fired")
	}
}

// FuzzShardReply fuzzes the reply ingestion path end to end: JSON
// decoding of an untrusted worker reply, cross-validation against a
// small request, and checksum verification must never panic, whatever
// bytes arrive — corrupted checksums included.
func FuzzShardReply(f *testing.F) {
	req := &ShardRequest{
		Shard: 1, Attempt: 2,
		Faults: make([]fault.Fault, 4),
		Stream: []fault.TimedPattern{{CC: 10}, {CC: 17}, {CC: 21}},
	}
	good := &ShardResult{
		Shard: 1, Attempt: 2, Worker: "w",
		Detections: []Detection{{Fault: 0, Pattern: 1, CC: 17}, {Fault: 2, Pattern: 2, CC: 21}},
	}
	good.Checksum = ChecksumDetections(good.Detections)
	seed, _ := json.Marshal(good)
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"shard":1,"attempt":2,"detections":[{"fault":-1,"pattern":9,"cc":0}],"checksum":"zz"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var res ShardResult
		if err := json.Unmarshal(data, &res); err != nil {
			return
		}
		verr := res.Validate(req)
		cerr := res.VerifyChecksum()
		if verr == nil && cerr == nil {
			// An accepted reply must re-checksum to itself.
			if ChecksumDetections(res.Detections) != res.Checksum {
				t.Fatal("VerifyChecksum accepted a reply whose checksum does not match")
			}
		}
	})
}
