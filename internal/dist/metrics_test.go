package dist

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"gpustl/internal/failpoint"
	"gpustl/internal/fault"
	"gpustl/internal/obs"
)

// TestHedgeLoserAttribution pins down that a hedged loser's cancellation
// is attributed as a hedge loss — not dropped, and never inflated into a
// retry: the loser failed because the coordinator canceled it, not
// because the worker misbehaved.
func TestHedgeLoserAttribution(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(54)), m.Lanes, 256)

	slow := WithFailpoints(NewLocal("slow"), fpSet(t, map[string]failpoint.Config{
		"dist.reply.delay": {Kind: failpoint.KindDelay, Delay: 10 * time.Second, Seed: 201},
	}))
	reg := obs.NewRegistry()
	opt := fastOptions()
	opt.Shards = 1 // the single shard lands on the slow worker first
	opt.ShardBaseTimeout = 20 * time.Second
	opt.ShardPatternTimeout = time.Microsecond
	opt.HedgeFraction = 0.002
	opt.Metrics = reg
	co, err := New(opt, slow, NewLocal("fast"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	camp := newSPCampaign(t, m, 500, 53)
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Hedges == 0 {
		t.Fatalf("straggler was never hedged: %+v", st)
	}
	if st.HedgeWins == 0 {
		t.Fatalf("hedged duplicate settled the shard but HedgeWins = 0: %+v", st)
	}
	if st.HedgeLosses == 0 {
		t.Fatalf("canceled loser was dropped instead of attributed: %+v", st)
	}
	if st.Retries != 0 {
		t.Fatalf("loser cancellation inflated Retries to %d: %+v", st.Retries, st)
	}
	if st.DuplicateReplies != 0 {
		t.Fatalf("canceled loser miscounted as a duplicate reply: %+v", st)
	}

	// The registry must mirror Stats exactly: a scrape and the Result
	// tell the same story.
	snap := reg.Snapshot()
	for name, want := range map[string]int{
		"gpustl_dist_runs_total":          1,
		"gpustl_dist_dispatches_total":    st.Dispatches,
		"gpustl_dist_retries_total":       st.Retries,
		"gpustl_dist_hedges_total":        st.Hedges,
		"gpustl_dist_hedge_wins_total":    st.HedgeWins,
		"gpustl_dist_hedge_losses_total":  st.HedgeLosses,
		"gpustl_dist_preempted_total":     st.Preempted,
		"gpustl_dist_worker_deaths_total": st.WorkerDeaths,
	} {
		if got := snap.Counters[name]; got != uint64(want) {
			t.Errorf("%s = %d, want %d (stats %+v)", name, got, want, st)
		}
	}
	if up := snap.Gauges[`gpustl_dist_worker_up{worker="fast"}`]; up != 1 {
		t.Errorf("fast worker up gauge = %v, want 1", up)
	}
	hs, ok := snap.Histograms[`gpustl_dist_shard_seconds{worker="fast"}`]
	if !ok || hs.Count == 0 {
		t.Errorf("winning worker has no shard latency observation: %+v", snap.Histograms)
	}
}

// TestWorkerDownPreemptionAttribution pins down that shards canceled by
// a dead-worker declaration count as preemptions, not failures.
func TestWorkerDownPreemptionAttribution(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(53)), m.Lanes, 512)

	hang := &hangTransport{name: "silent"}
	hang.dead.Store(true)
	opt := fastOptions()
	opt.Shards = 2
	opt.HedgeFraction = -1
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
	st := res.Stats
	if st.WorkerDeaths != 1 || st.Redispatches == 0 {
		t.Fatalf("dead worker not handled: %+v", st)
	}
	if st.Preempted == 0 {
		t.Fatalf("dead worker's canceled attempts were not attributed as preemptions: %+v", st)
	}
	if st.Retries != 0 {
		t.Fatalf("preemption inflated Retries to %d: %+v", st.Retries, st)
	}
}

// TestCanceledRunRecordsStats pins down that a run canceled mid-flight
// still lands in the metrics: one run, its dispatches, no failed shard.
func TestCanceledRunRecordsStats(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(57)), m.Lanes, 256)

	reg := obs.NewRegistry()
	opt := fastOptions()
	opt.HedgeFraction = -1
	opt.Metrics = reg
	co, err := New(opt, &hangTransport{name: "stuck"})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	camp := newSPCampaign(t, m, 400, 57)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := co.Run(ctx, camp, stream, fault.SimOptions{}); err == nil {
		t.Fatal("canceled run must fail")
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"gpustl_dist_runs_total":          1,
		"gpustl_dist_shards_total":        4,
		"gpustl_dist_dispatches_total":    4,
		"gpustl_dist_failed_shards_total": 0,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
