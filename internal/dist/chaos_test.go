package dist

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpustl/internal/failpoint"
	"gpustl/internal/fault"
)

// chaosOptions: aggressive timing so chaos recovery paths run in
// milliseconds, generous attempt budget so seeded wire chaos cannot
// exhaust a shard.
func chaosOptions() Options {
	return Options{
		MaxAttempts:       8,
		BaseBackoff:       2 * time.Millisecond,
		MaxBackoff:        25 * time.Millisecond,
		ShardBaseTimeout:  30 * time.Second,
		HeartbeatInterval: 15 * time.Millisecond,
		HeartbeatMisses:   2,
		Shards:            8,
		Seed:              7,
	}
}

// TestChaosMergeByteIdentical is the acceptance chaos run: a worker that
// freezes mid-campaign, a straggler, a worker with a lossy/corrupting
// wire, and one steady worker, each armed by a set scoped to its own
// transport. Whatever the scheduling, the merged detected-fault set
// must be byte-identical to a serial Simulate.
func TestChaosMergeByteIdentical(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(51)), m.Lanes, 768)

	serial := newSPCampaign(t, m, 1000, 41)
	wantRep := serial.Simulate(stream, fault.SimOptions{Workers: 1})

	// after=1|times=1: the 8 shards start two per worker, so the kill
	// worker serves its first shard and freezes on its second at every
	// run. A later kill would depend on a retry happening to land on it.
	// The frozen shard can settle only once the heartbeat declares the
	// death and preempts it (hedging is seconds away).
	kill := WithFailpoints(NewLocal("chaos-kill"), fpSet(t, map[string]failpoint.Config{
		"dist.worker.kill": {Kind: failpoint.KindError, After: 1, Times: 1},
	}))
	straggle := WithFailpoints(NewLocal("chaos-delay"), fpSet(t, map[string]failpoint.Config{
		"dist.reply.delay": {Kind: failpoint.KindDelay, Delay: 40 * time.Millisecond, Prob: 0.5, Seed: 102},
	}))
	// The wire worker's first reply is always lost (drop's first roll
	// with seed 104 fires), so at least one retry is deterministic.
	wire := WithFailpoints(NewLocal("chaos-wire"), fpSet(t, map[string]failpoint.Config{
		"dist.reply.drop":    {Kind: failpoint.KindDrop, Prob: 0.35, Seed: 104},
		"dist.reply.dup":     {Kind: failpoint.KindDuplicate, Prob: 0.25, Seed: 105},
		"dist.reply.corrupt": {Kind: failpoint.KindCorrupt, Prob: 0.3, Seed: 106, Bit: -1},
	}))
	co, err := New(chaosOptions(), kill, straggle, wire, NewLocal("steady"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	camp := newSPCampaign(t, m, 1000, 41)
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded() {
		t.Fatalf("chaos run degraded with a steady worker present: %+v", res.ShardErrors)
	}
	assertSameReport(t, res.Report, wantRep)
	if !reflect.DeepEqual(camp.DetectedIDs(), serial.DetectedIDs()) {
		t.Fatal("chaos run: detected-ID set differs from serial")
	}
	if !kill.(*faultTransport).killed.Load() {
		t.Fatal("chaos kill never fired; test exercised nothing")
	}
	if res.Stats.WorkerDeaths < 1 {
		t.Fatalf("killed worker was never declared dead: %+v", res.Stats)
	}
	if res.Stats.Preempted < 1 {
		t.Fatalf("frozen worker's shard was never preempted: %+v", res.Stats)
	}
	if res.Stats.Retries == 0 {
		t.Fatalf("lossy wire never caused a retry: %+v", res.Stats)
	}
	t.Logf("chaos stats: %+v", res.Stats)
}

// failShards makes a transport permanently fail chosen shards — the
// knob for forcing graceful degradation.
type failShards struct {
	Transport
	bad map[int]bool
}

func (f *failShards) Simulate(ctx context.Context, req *ShardRequest) (*ShardResult, error) {
	if f.bad[req.Shard] {
		return nil, errors.New("injected permanent shard failure")
	}
	return f.Transport.Simulate(ctx, req)
}

// TestDegradedBounds: when one shard fails on every worker for
// MaxAttempts attempts, the campaign must complete without error and
// report FC as an interval exactly as wide as the unknown faults.
func TestDegradedBounds(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(52)), m.Lanes, 512)

	opt := fastOptions()
	opt.Shards = 4
	opt.HedgeFraction = -1
	co, err := New(opt,
		&failShards{Transport: NewLocal("w1"), bad: map[int]bool{0: true}},
		&failShards{Transport: NewLocal("w2"), bad: map[int]bool{0: true}},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	camp := newSPCampaign(t, m, 800, 43)
	total := camp.Total()
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatalf("degraded run must complete, got error: %v", err)
	}
	if !res.Degraded() || res.FailedShards != 1 {
		t.Fatalf("want exactly one failed shard, got %+v", res)
	}
	if res.FailedFaults == 0 {
		t.Fatal("failed shard reported zero faults")
	}
	wantWidth := 100 * float64(res.FailedFaults) / float64(total)
	if width := res.FCUpper - res.FCLower; !closeTo(width, wantWidth) {
		t.Fatalf("FC interval width = %v, want %v", width, wantWidth)
	}
	if got, want := res.FCLower, camp.Coverage(); !closeTo(got, want) {
		t.Fatalf("FCLower = %v, want committed coverage %v", got, want)
	}
	if len(res.ShardErrors) != 1 || !strings.Contains(res.ShardErrors[0], "injected") {
		t.Fatalf("shard errors not propagated: %q", res.ShardErrors)
	}
	// The successful shards' detections must still be committed.
	if camp.Detected() != res.DetectedThisRun {
		t.Fatalf("committed %d detections, result says %d", camp.Detected(), res.DetectedThisRun)
	}

	// The compactor-facing adapter must refuse partial data instead:
	// compaction decisions on an incomplete fault list would be unsound.
	camp2 := newSPCampaign(t, m, 800, 43)
	if _, err := co.SimulateCampaign(context.Background(), camp2, stream, fault.SimOptions{}); err == nil {
		t.Fatal("SimulateCampaign must surface degradation as an error")
	} else if !strings.Contains(err.Error(), "FC bounds") {
		t.Fatalf("degradation error should name the FC bounds, got: %v", err)
	}
}

// TestChaosInjectionsRejectedByValidation pins down, deterministically,
// that each wire-chaos injection is caught by the layer meant to catch
// it: corrupted payloads and stale duplicated replies fail Validate,
// dropped replies surface as transport errors.
func TestChaosInjectionsRejectedByValidation(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(56)), m.Lanes, 128)
	camp := newSPCampaign(t, m, 300, 61)
	req := &ShardRequest{
		Shard: 0, Attempt: 0,
		Module: m.Kind, Lanes: m.Lanes,
		Faults: camp.Faults(), Stream: stream,
	}

	corrupting := WithFailpoints(NewLocal("w"), fpSet(t, map[string]failpoint.Config{
		"dist.reply.corrupt": {Kind: failpoint.KindCorrupt, Seed: 1, Bit: -1},
	}))
	for i := 0; i < 6; i++ { // several rounds to hit multiple corruption variants
		res, err := corrupting.Simulate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Validate(req) == nil {
			t.Fatalf("round %d: corrupted reply passed validation", i)
		}
	}

	duping := WithFailpoints(NewLocal("w"), fpSet(t, map[string]failpoint.Config{
		"dist.reply.dup": {Kind: failpoint.KindDuplicate, Seed: 2},
	}))
	first, err := duping.Simulate(context.Background(), req) // primes the stale copy
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Validate(req); err != nil {
		t.Fatalf("first (real) reply rejected: %v", err)
	}
	retry := *req
	retry.Attempt = 1
	stale, err := duping.Simulate(context.Background(), &retry)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Validate(&retry) == nil {
		t.Fatal("stale duplicated reply passed validation despite wrong attempt echo")
	}

	dropping := WithFailpoints(NewLocal("w"), fpSet(t, map[string]failpoint.Config{
		"dist.reply.drop": {Kind: failpoint.KindDrop, Seed: 3},
	}))
	if _, err := dropping.Simulate(context.Background(), req); err == nil {
		t.Fatal("dropped reply did not error")
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// hangTransport hangs every Simulate until canceled and fails pings once
// dead — the deterministic stand-in for a machine that stops responding
// mid-shard.
type hangTransport struct {
	name string
	dead atomic.Bool
}

func (h *hangTransport) Name() string { return h.name }
func (h *hangTransport) Simulate(ctx context.Context, req *ShardRequest) (*ShardResult, error) {
	<-ctx.Done()
	return nil, context.Cause(ctx)
}
func (h *hangTransport) Ping(ctx context.Context) error {
	if h.dead.Load() {
		return errors.New("dead")
	}
	return ctx.Err()
}
func (h *hangTransport) Close() error { return nil }

// TestWorkerDeathRedistributes: a worker goes silent while holding an
// in-flight shard; the heartbeat must declare it dead and the shard must
// complete on the survivor.
func TestWorkerDeathRedistributes(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(53)), m.Lanes, 512)

	serial := newSPCampaign(t, m, 800, 47)
	wantRep := serial.Simulate(stream, fault.SimOptions{Workers: 1})

	hang := &hangTransport{name: "silent"}
	hang.dead.Store(true) // pings fail from the start; Simulate just hangs
	opt := fastOptions()
	opt.Shards = 2
	opt.HedgeFraction = -1 // isolate the worker-death path from hedging
	co, err := New(opt, hang, NewLocal("survivor"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	camp := newSPCampaign(t, m, 800, 47)
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded() {
		t.Fatalf("survivor should have absorbed the dead worker's shards: %+v", res.ShardErrors)
	}
	assertSameReport(t, res.Report, wantRep)
	if res.Stats.WorkerDeaths != 1 {
		t.Fatalf("WorkerDeaths = %d, want 1", res.Stats.WorkerDeaths)
	}
	if res.Stats.Redispatches == 0 {
		t.Fatalf("dead worker's in-flight shard was never redistributed: %+v", res.Stats)
	}
}

// TestHedgedStraggler: with one very slow and one fast worker, the hedge
// timer must duplicate the straggling dispatch and the fast reply must
// win.
func TestHedgedStraggler(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(54)), m.Lanes, 256)

	serial := newSPCampaign(t, m, 500, 53)
	wantRep := serial.Simulate(stream, fault.SimOptions{Workers: 1})

	slow := WithFailpoints(NewLocal("slow"), fpSet(t, map[string]failpoint.Config{
		"dist.reply.delay": {Kind: failpoint.KindDelay, Delay: 10 * time.Second, Seed: 201},
	}))
	opt := fastOptions()
	opt.Shards = 1 // a single shard must land on the slow worker first
	opt.ShardBaseTimeout = 20 * time.Second
	opt.ShardPatternTimeout = time.Microsecond
	opt.HedgeFraction = 0.002 // hedge after ~40ms
	co, err := New(opt, slow, NewLocal("fast"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	camp := newSPCampaign(t, m, 500, 53)
	start := time.Now()
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Hedges == 0 {
		t.Fatalf("straggler was never hedged: %+v", res.Stats)
	}
	assertSameReport(t, res.Report, wantRep)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedging did not rescue the straggler: run took %v", elapsed)
	}
}

// TestAllWorkersDead: when every worker is gone the coordinator must
// degrade promptly — all shards failed, full-width FC bounds — instead
// of hanging until test timeout.
func TestAllWorkersDead(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(55)), m.Lanes, 256)

	hang := &hangTransport{name: "gone"}
	hang.dead.Store(true)
	opt := fastOptions()
	opt.Shards = 3
	opt.HedgeFraction = -1
	co, err := New(opt, hang)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	camp := newSPCampaign(t, m, 400, 59)
	done := make(chan struct{})
	var res *Result
	go func() {
		defer close(done)
		res, err = co.Run(context.Background(), camp, stream, fault.SimOptions{})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator hung with all workers dead")
	}
	if err != nil {
		t.Fatalf("all-dead run must degrade, not error: %v", err)
	}
	if res.FailedShards != res.Shards || !res.Degraded() {
		t.Fatalf("want every shard failed, got %+v", res)
	}
	if res.FCLower != 0 || res.FCUpper != 100 {
		t.Fatalf("FC bounds = [%v, %v], want [0, 100]", res.FCLower, res.FCUpper)
	}
	if camp.Detected() != 0 {
		t.Fatal("no shard succeeded but detections were committed")
	}
}
