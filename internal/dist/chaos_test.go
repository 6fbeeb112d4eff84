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
// must be byte-identical to a serial SimulateCtx run.
func TestChaosMergeByteIdentical(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(51)), m.Lanes, 768)

	serial := newSPCampaign(t, m, 1000, 41)
	wantRep := serialReport(t, serial, stream)

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
// knob for forcing a shard to fail for good.
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

// TestFailedShardCommitsNothing: when one shard fails on every worker
// for MaxAttempts attempts, Run and SimulateCampaign both fail naming
// that shard, and the campaign's detected set is exactly what it was
// before — the detections of the shards that succeeded are not
// committed.
func TestFailedShardCommitsNothing(t *testing.T) {
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

	for name, simulate := range map[string]func(*fault.Campaign) error{
		"Run": func(camp *fault.Campaign) error {
			_, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
			return err
		},
		"SimulateCampaign": func(camp *fault.Campaign) error {
			_, err := co.SimulateCampaign(context.Background(), camp, stream, fault.SimOptions{})
			return err
		},
	} {
		camp := newSPCampaign(t, m, 800, 43)
		// Start from a partly detected campaign, so "unchanged" means
		// more than "still empty".
		serialReport(t, camp, stream[:16])
		before, ids := camp.Detected(), camp.DetectedIDs()
		if before == 0 {
			t.Fatal("test needs a campaign with prior detections")
		}
		err := simulate(camp)
		if err == nil {
			t.Fatalf("%s: a permanently failed shard must fail the run", name)
		}
		if !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), "injected") {
			t.Fatalf("%s: error does not name the shard and its attempt errors: %v", name, err)
		}
		if camp.Detected() != before || !reflect.DeepEqual(camp.DetectedIDs(), ids) {
			t.Fatalf("%s: failed run committed detections: %d detected, was %d", name, camp.Detected(), before)
		}
	}
}

// hangShard parks one shard until its dispatch is canceled, counting
// the cancellations, and passes every other shard through.
type hangShard struct {
	Transport
	shard    int
	canceled *atomic.Int32
}

func (h *hangShard) Simulate(ctx context.Context, req *ShardRequest) (*ShardResult, error) {
	if req.Shard != h.shard {
		return h.Transport.Simulate(ctx, req)
	}
	<-ctx.Done()
	h.canceled.Add(1)
	return nil, context.Cause(ctx)
}

// TestFailFast: the first shard to fail for good ends the run at once.
// Shard 0 fails on every worker while shard 1 hangs; Run must return
// long before the hanging dispatch's deadline, with that dispatch
// canceled and nothing committed.
func TestFailFast(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(56)), m.Lanes, 256)

	var canceled atomic.Int32
	worker := func(name string) Transport {
		return &hangShard{
			Transport: &failShards{Transport: NewLocal(name), bad: map[int]bool{0: true}},
			shard:     1,
			canceled:  &canceled,
		}
	}
	opt := fastOptions()
	opt.HedgeFraction = -1
	opt.ShardBaseTimeout = time.Minute // only the failing shard may end the run
	co, err := New(opt, worker("w1"), worker("w2"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	camp := newSPCampaign(t, m, 800, 61)
	start := time.Now()
	_, err = co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err == nil || !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("want the run to fail at shard 0, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("run waited %v for the hanging shard instead of failing fast", elapsed)
	}
	if canceled.Load() == 0 {
		t.Fatal("the hanging dispatch was never canceled")
	}
	if camp.Detected() != 0 {
		t.Fatalf("failed run committed %d detections", camp.Detected())
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
	wantRep := serialReport(t, serial, stream)

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
	wantRep := serialReport(t, serial, stream)

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
// fail the run once the grace period ends, committing nothing, instead
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
	go func() {
		defer close(done)
		_, err = co.Run(context.Background(), camp, stream, fault.SimOptions{})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator hung with all workers dead")
	}
	if err == nil || !strings.Contains(err.Error(), "no alive workers") {
		t.Fatalf("all-dead run must fail naming the stranded fleet, got %v", err)
	}
	if camp.Detected() != 0 {
		t.Fatal("no shard succeeded but detections were committed")
	}
}
