package dist

import (
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpustl/internal/failpoint"
	"gpustl/internal/fault"
	"gpustl/internal/obs"
)

// byzOptions: full verification so every shard gets a second opinion —
// the configuration a Byzantine worker cannot hide from.
func byzOptions(reg *obs.Registry) Options {
	opt := fastOptions()
	opt.VerifyFraction = 1
	opt.Metrics = reg
	return opt
}

// TestByzantineWorkerQuarantined is the acceptance scenario: one worker
// of four returns plausible-but-wrong results (valid indices, matching
// CCs, self-consistent checksum). The checksum vote must out it, the
// campaign must still be byte-identical to a serial run, and the
// quarantine must surface in Stats and gpustl_* metrics.
func TestByzantineWorkerQuarantined(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(61)), m.Lanes, 512)

	serial := newSPCampaign(t, m, 800, 67)
	wantRep := serialReport(t, serial, stream)

	// The Byzantine failpoint is armed in a set scoped to the liar's
	// transport alone.
	liar := WithFailpoints(NewLocal("liar"), fpSet(t, map[string]failpoint.Config{
		"dist.reply.byzantine": {Kind: failpoint.KindCorrupt, Prob: 1, Seed: 11},
	}))
	reg := obs.NewRegistry()
	co, err := New(byzOptions(reg), liar, NewLocal("w1"), NewLocal("w2"), NewLocal("w3"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	camp := newSPCampaign(t, m, 800, 67)
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, res.Report, wantRep)

	st := res.Stats
	if st.ByzantineReplies == 0 {
		t.Fatalf("liar's replies never outvoted: %+v", st)
	}
	if st.QuarantinedWorkers != 1 {
		t.Fatalf("QuarantinedWorkers = %d, want 1: %+v", st.QuarantinedWorkers, st)
	}
	if st.VerifiedShards == 0 || st.VerifyMismatches == 0 {
		t.Fatalf("verification never ran: %+v", st)
	}
	if got := co.Banned(); len(got) != 1 || got[0] != "liar" {
		t.Fatalf("Banned() = %v, want [liar]", got)
	}

	snap := reg.Snapshot()
	if n := snap.Counters["gpustl_dist_byzantine_replies_total"]; n != uint64(st.ByzantineReplies) {
		t.Errorf("gpustl_dist_byzantine_replies_total = %d, want %d", n, st.ByzantineReplies)
	}
	if n := snap.Counters["gpustl_dist_quarantined_workers_total"]; n != 1 {
		t.Errorf("gpustl_dist_quarantined_workers_total = %d, want 1", n)
	}
	if n := snap.Counters["gpustl_dist_verified_shards_total"]; n != uint64(st.VerifiedShards) {
		t.Errorf("gpustl_dist_verified_shards_total = %d, want %d", n, st.VerifiedShards)
	}
	if g := snap.Gauges[`gpustl_dist_worker_quarantined{worker="liar"}`]; g != 1 {
		t.Errorf("quarantine gauge = %v, want 1", g)
	}
	if g := snap.Gauges[`gpustl_dist_worker_up{worker="liar"}`]; g != 0 {
		t.Errorf("liar still reads up: gauge = %v", g)
	}

	// The blacklist persists across runs on the same coordinator: the
	// liar is never consulted again, so the next campaign sees zero
	// Byzantine replies and stays exact (the liar's set is still armed).
	serial2 := newSPCampaign(t, m, 600, 71)
	wantRep2 := serialReport(t, serial2, stream)
	camp2 := newSPCampaign(t, m, 600, 71)
	res2, err := co.Run(context.Background(), camp2, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, res2.Report, wantRep2)
	if res2.Stats.ByzantineReplies != 0 {
		t.Fatalf("banned liar still answered: %+v", res2.Stats)
	}
}

// slowTransport delays every simulate reply; it keeps the honest
// workers behind the liar so the liar demonstrably settles unverified
// shards before its first lie is caught.
type slowTransport struct {
	Transport
	delay time.Duration
}

func (s *slowTransport) Simulate(ctx context.Context, req *ShardRequest) (*ShardResult, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.Transport.Simulate(ctx, req)
}

// TestQuarantineRequeuesUnverifiedShards: with partial verification a
// liar can settle some shards unnoticed — until one verified shard outs
// it. Every shard it settled unverified must then be re-executed, so
// the final result is still byte-identical. The liar is fast and starts
// honest (After budget), the honest workers are slow: the liar settles
// its unverified shards first, then lies on a later verification
// execution and is caught.
func TestQuarantineRequeuesUnverifiedShards(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(62)), m.Lanes, 384)

	serial := newSPCampaign(t, m, 700, 73)
	wantRep := serialReport(t, serial, stream)

	// Honest for its first 4 replies — long enough to settle its share
	// of the initial dispatch wave — then every reply is a lie.
	liar := WithFailpoints(NewLocal("liar"), fpSet(t, map[string]failpoint.Config{
		"dist.reply.byzantine": {Kind: failpoint.KindCorrupt, Prob: 1, After: 4, Seed: 21},
	}))
	opt := fastOptions()
	opt.VerifyFraction = 0.5
	opt.Shards = 9
	co, err := New(opt, liar,
		&slowTransport{Transport: NewLocal("w1"), delay: 30 * time.Millisecond},
		&slowTransport{Transport: NewLocal("w2"), delay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	camp := newSPCampaign(t, m, 700, 73)
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, res.Report, wantRep)
	if res.Stats.QuarantinedWorkers != 1 {
		t.Fatalf("liar not quarantined: %+v", res.Stats)
	}
	if res.Stats.RequeuedShards == 0 {
		t.Fatalf("no unverified shard was requeued after the quarantine: %+v", res.Stats)
	}
}

// TestVerificationCleanPath: with honest workers and full verification
// the vote always agrees on the first two replies — no mismatches, no
// quarantines, exact output, and one extra execution per shard.
func TestVerificationCleanPath(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(63)), m.Lanes, 256)

	serial := newSPCampaign(t, m, 500, 79)
	wantRep := serialReport(t, serial, stream)

	co, err := New(byzOptions(nil), NewLocal("w1"), NewLocal("w2"), NewLocal("w3"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	camp := newSPCampaign(t, m, 500, 79)
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, res.Report, wantRep)
	st := res.Stats
	if st.VerifiedShards != st.Shards {
		t.Fatalf("VerifiedShards = %d, want every one of %d: %+v", st.VerifiedShards, st.Shards, st)
	}
	if st.VerifyMismatches != 0 || st.ByzantineReplies != 0 || st.QuarantinedWorkers != 0 {
		t.Fatalf("honest fleet produced byzantine accounting: %+v", st)
	}
	if st.VerifyDispatches == 0 {
		t.Fatalf("verification dispatched no second executions: %+v", st)
	}
}

// TestChecksumMismatchRejected: a reply whose payload does not match
// its own checksum is accidental corruption — rejected by validation
// and retried, never escalated to a Byzantine vote.
func TestChecksumMismatchRejected(t *testing.T) {
	res := &ShardResult{Shard: 1, Attempt: 2, Detections: []Detection{{Fault: 0, Pattern: 3, CC: 21}}}
	res.Checksum = ChecksumDetections(res.Detections)
	if err := res.VerifyChecksum(); err != nil {
		t.Fatalf("consistent checksum rejected: %v", err)
	}
	res.Checksum = strings.Repeat("0", 64)
	if err := res.VerifyChecksum(); err == nil {
		t.Fatal("inconsistent checksum accepted")
	}
	res.Checksum = ""
	if err := res.VerifyChecksum(); err == nil {
		t.Fatal("reply without a checksum accepted")
	}
}

// TestDrainingWorkerRedistributes: a worker in drain mode bounces new
// shards with a retryable 503. The transport surfaces ErrUnavailable
// and the coordinator redistributes without charging a failed attempt.
func TestDrainingWorkerRedistributes(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(64)), m.Lanes, 256)

	serial := newSPCampaign(t, m, 400, 83)
	wantRep := serialReport(t, serial, stream)

	handler := NewHandlerMetrics("draining", nil, nil)
	handler.StartDrain()
	srv := httptest.NewServer(handler)
	defer srv.Close()

	// Transport level: the bounce is ErrUnavailable, not a generic
	// HTTP failure.
	ht := NewHTTP(srv.URL)
	_, err := ht.Simulate(context.Background(), &ShardRequest{})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("draining worker bounce = %v, want ErrUnavailable", err)
	}
	// And its heartbeat reads unhealthy, so the coordinator will stop
	// picking it.
	if err := ht.Ping(context.Background()); err == nil {
		t.Fatal("draining worker still answers healthz healthy")
	}

	co, err := New(fastOptions(), NewHTTP(srv.URL), NewLocal("steady"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	camp := newSPCampaign(t, m, 400, 83)
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, res.Report, wantRep)
}

// TestWorkerDrainLifecycle covers the full drain handshake the
// stlworker daemon performs on SIGTERM: accept, StartDrain, reject,
// DrainWait returns once in-flight work is done.
func TestWorkerDrainLifecycle(t *testing.T) {
	handler := NewHandlerMetrics("w", nil, nil)
	srv := httptest.NewServer(handler)
	defer srv.Close()
	ht := NewHTTP(srv.URL)
	defer ht.Close()

	if handler.Draining() {
		t.Fatal("fresh handler reports draining")
	}
	if err := ht.Ping(context.Background()); err != nil {
		t.Fatalf("healthy ping: %v", err)
	}
	handler.StartDrain()
	if !handler.Draining() {
		t.Fatal("StartDrain did not latch")
	}
	done := make(chan struct{})
	go func() { handler.DrainWait(); close(done) }()
	<-done // nothing in flight: DrainWait returns immediately
}
