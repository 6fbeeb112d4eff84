package dist

import (
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"gpustl/internal/failpoint"
	"gpustl/internal/fault"
)

// fpSet builds a failpoint set from cfgs, failing the test on a bad
// name or config.
func fpSet(t testing.TB, cfgs map[string]failpoint.Config) *failpoint.Set {
	t.Helper()
	set, err := failpoint.NewSet(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestWireFailpointsStayExact arms every message-shaped dist failpoint
// at once — dropped, duplicated, reordered and delayed replies plus
// outright transport errors — against a fleet of honest workers. The
// validation/retry machinery must absorb all of it: the merged result
// stays byte-identical to a serial simulation.
func TestWireFailpointsStayExact(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(71)), m.Lanes, 384)

	serial := newSPCampaign(t, m, 700, 91)
	wantRep := serialReport(t, serial, stream)

	chaotic := WithFailpoints(NewLocal("chaotic"), fpSet(t, map[string]failpoint.Config{
		"dist.reply.drop":      {Kind: failpoint.KindDrop, Prob: 0.2, Seed: 1},
		"dist.reply.dup":       {Kind: failpoint.KindDuplicate, Prob: 0.2, Seed: 2},
		"dist.reply.reorder":   {Kind: failpoint.KindReorder, Prob: 0.3, Seed: 3},
		"dist.reply.delay":     {Kind: failpoint.KindDelay, Delay: 5 * time.Millisecond, Prob: 0.3, Seed: 4},
		"dist.transport.error": {Kind: failpoint.KindError, Prob: 0.15, Seed: 5},
	}))
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
	assertSameReport(t, res.Report, wantRep)
}

// TestPingFailpointKillsAndRevives: dist.ping.error with a Times budget
// makes a worker miss enough heartbeats to be declared dead, then
// answer again — death, redistribution and revival all driven from one
// failpoint.
func TestPingFailpointKillsAndRevives(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(72)), m.Lanes, 256)

	serial := newSPCampaign(t, m, 500, 97)
	wantRep := serialReport(t, serial, stream)

	flaky := WithFailpoints(NewLocal("flaky"), fpSet(t, map[string]failpoint.Config{
		"dist.ping.error": {Kind: failpoint.KindError, Times: 4},
	}))
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
	assertSameReport(t, res.Report, wantRep)
}

// TestRestrictedWrapperLeavesOtherSitesAlone: a wrapper scoped to its
// own set evaluates only that set, whatever its calls' ctx carries, and
// never consumes the trigger budget of the ctx's set.
func TestRestrictedWrapperLeavesOtherSitesAlone(t *testing.T) {
	ctx := failpoint.WithSet(context.Background(), fpSet(t, map[string]failpoint.Config{
		"dist.reply.drop": {Kind: failpoint.KindDrop, Times: 1},
	}))
	// Scoped to ping errors only: its simulate path must neither see
	// nor consume the ctx's drop budget.
	ft := WithFailpoints(NewLocal("w"), fpSet(t, map[string]failpoint.Config{
		"dist.ping.error": {Kind: failpoint.KindError, Times: 1},
	}))
	req := &ShardRequest{Module: spModule(t).Kind, Stream: nil, Faults: nil}
	if _, err := ft.Simulate(ctx, req); err != nil {
		t.Fatalf("scoped wrapper fired a foreign failpoint: %v", err)
	}
	if err := ft.Ping(ctx); err == nil {
		t.Fatal("scoped ping failpoint never fired")
	}
	// An unscoped wrapper evaluates the ctx's set and consumes it.
	all := WithFailpoints(NewLocal("w2"), nil)
	if _, err := all.Simulate(ctx, req); err == nil {
		t.Fatal("armed drop failpoint never fired")
	}
	if _, err := all.Simulate(ctx, req); err != nil {
		t.Fatalf("drop fired past its Times budget: %v", err)
	}
	// With no set anywhere, the wrapper is inert.
	if _, err := WithFailpoints(NewLocal("w3"), nil).Simulate(context.Background(), req); err != nil {
		t.Fatalf("disarmed wrapper failed: %v", err)
	}
}

// TestWorkerServesRequestContextSet is the stlworker path: the set
// rides each request's ctx (http.Server.BaseContext), and a frozen
// worker stalls its shard until the deadline and fails its heartbeats
// from then on.
func TestWorkerServesRequestContextSet(t *testing.T) {
	set := fpSet(t, map[string]failpoint.Config{
		"dist.worker.kill": {Kind: failpoint.KindError},
	})
	srv := httptest.NewUnstartedServer(NewHandler("frozen", nil))
	srv.Config.BaseContext = func(net.Listener) context.Context {
		return failpoint.WithSet(context.Background(), set)
	}
	srv.Start()
	defer srv.Close()
	ht := NewHTTP(srv.URL)
	defer ht.Close()

	if err := ht.Ping(context.Background()); err != nil {
		t.Fatalf("ping before the kill: %v", err)
	}
	m := spModule(t)
	req := &ShardRequest{Module: m.Kind, Lanes: m.Lanes,
		Stream: randomSPStream(rand.New(rand.NewSource(73)), m.Lanes, 8)}
	// The shard ends only at the deadline: the caller's own, or the
	// worker's copy of it (X-Gpustl-Deadline, answered 504).
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := ht.Simulate(ctx, req); err == nil || time.Since(start) < 40*time.Millisecond {
		t.Fatalf("frozen worker's shard = %v after %v, want a failure at the deadline", err, time.Since(start))
	}
	if err := ht.Ping(context.Background()); err == nil {
		t.Fatal("frozen worker still answers healthz healthy")
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
