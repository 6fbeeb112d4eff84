package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpustl/internal/core"
	"gpustl/internal/failpoint"
	"gpustl/internal/obs"
	"gpustl/internal/ptpgen"
	"gpustl/internal/run"
	"gpustl/internal/stl"
)

// inlineLib serializes a small generated library for Spec.STL.
func inlineLib(t *testing.T, n int, seed int64) json.RawMessage {
	t.Helper()
	lib := &stl.STL{PTPs: []*stl.PTP{ptpgen.IMM(n, seed), ptpgen.MEM(n, seed+1)}}
	var buf bytes.Buffer
	if err := stl.WriteSTL(&buf, lib); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// smallSpec is a fast campaign (~tens of ms of simulation).
func smallSpec(t *testing.T) *Spec {
	fc := 5.0
	return &Spec{STL: inlineLib(t, 6, 11), Faults: 300, FCTol: &fc}
}

// slowSpec is a campaign big enough to still be live while the test
// races it (kills the server mid-run, submits a second tenant, ...).
func slowSpec(t *testing.T) *Spec {
	fc := 5.0
	return &Spec{STL: inlineLib(t, 24, 31), Faults: 1500, FCTol: &fc}
}

type testSrv struct {
	*Server
	cancel context.CancelFunc
	done   chan error
}

// startSrv launches a server on dir. It does NOT wait for readiness —
// takeover tests start servers that must block on the lease.
func startSrv(t *testing.T, dir, holder string, mod func(*Options)) *testSrv {
	t.Helper()
	return startSrvCtx(t, context.Background(), dir, holder, mod)
}

// armed returns a ctx whose failpoint set arms one site with cfg.
func armed(t *testing.T, name string, cfg failpoint.Config) context.Context {
	t.Helper()
	set, err := failpoint.NewSet(map[string]failpoint.Config{name: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return failpoint.WithSet(context.Background(), set)
}

// startSrvCtx is startSrv with Run under a child of parent, so the
// server's sites evaluate against parent's failpoint set.
func startSrvCtx(t *testing.T, parent context.Context, dir, holder string, mod func(*Options)) *testSrv {
	t.Helper()
	opts := Options{
		StateDir:       dir,
		Holder:         holder,
		MaxActive:      2,
		HeartbeatEvery: 10 * time.Millisecond,
		LeaseTTL:       80 * time.Millisecond,
		DrainGrace:     5 * time.Second,
		SimWorkers:     2,
		Metrics:        obs.NewRegistry(),
	}
	if mod != nil {
		mod(&opts)
	}
	s := New(opts)
	ctx, cancel := context.WithCancel(parent)
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	ts := &testSrv{Server: s, cancel: cancel, done: done}
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Error("server did not stop within 20s")
		}
	})
	return ts
}

func (ts *testSrv) waitReady(t *testing.T, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !ts.Ready() {
		select {
		case err := <-ts.done:
			ts.done <- err
			t.Fatalf("server died while waiting for ready: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server not ready after %s", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (ts *testSrv) waitTerminal(t *testing.T, id string, timeout time.Duration) CampaignView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if v, ok := ts.Get(id); ok && v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			v, _ := ts.Get(id)
			t.Fatalf("campaign %s not terminal after %s (state %s)", id, timeout, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func counter(ts *testSrv, name string) uint64 {
	return ts.opt.Metrics.Counter(name).Value()
}

// TestCampaignLifecycle pins the happy path and the idempotency and
// cache contracts: submit → done → verified artifact; resubmitting the
// same id is a no-op, the same id with a different spec is a conflict,
// and the same content under a new id is served from the cache without
// re-simulation.
// TestCampaignHistogramReachesAnHour checks that a long campaign lands
// in a finite bucket of gpustl_server_campaign_seconds, so a latency
// objective can be computed for it, and that the ladder reaches an hour.
func TestCampaignHistogramReachesAnHour(t *testing.T) {
	reg := obs.NewRegistry()
	New(Options{StateDir: t.TempDir(), Metrics: reg})
	const name = "gpustl_server_campaign_seconds"
	reg.Histogram(name, nil).Observe(300)
	hs, ok := reg.Snapshot().Histograms[name]
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	if hs.Buckets["300"] != 1 {
		t.Errorf("le=300 holds %d observations, want the 300 s one; buckets %v", hs.Buckets["300"], hs.Buckets)
	}
	if hs.Buckets["3600"] != 1 {
		t.Errorf("no le=3600 bucket holding the observation; buckets %v", hs.Buckets)
	}
}

func TestCampaignLifecycle(t *testing.T) {
	ts := startSrv(t, t.TempDir(), "t1", nil)
	ts.waitReady(t, 10*time.Second)

	sp := smallSpec(t)
	if _, err := ts.Submit("c1", sp); err != nil {
		t.Fatal(err)
	}
	v := ts.waitTerminal(t, "c1", 60*time.Second)
	if v.State != StateDone {
		t.Fatalf("campaign ended %s (%s), want done", v.State, v.Error)
	}
	if v.FromCache {
		t.Fatal("first run of new content claims a cache hit")
	}
	art, err := ts.Result("c1")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if _, err := stl.ReadSTL(bytes.NewReader(art)); err != nil {
		t.Fatalf("artifact is not a readable STL: %v", err)
	}

	// Idempotent resubmission of the same id + spec: same campaign back.
	v2, err := ts.Submit("c1", sp)
	if err != nil {
		t.Fatalf("idempotent resubmit: %v", err)
	}
	if v2.ID != "c1" || v2.State != StateDone {
		t.Fatalf("idempotent resubmit returned %s/%s", v2.ID, v2.State)
	}
	// Same id, different spec: conflict.
	other := smallSpec(t)
	other.Reverse = true
	if _, err := ts.Submit("c1", other); !errors.Is(err, ErrSpecConflict) {
		t.Fatalf("conflicting resubmit: got %v, want ErrSpecConflict", err)
	}

	// Same content, new id: a verified cache hit, zero shards simulated.
	hits0 := counter(ts, "gpustl_server_cache_hits_total")
	if _, err := ts.Submit("c2", sp); err != nil {
		t.Fatal(err)
	}
	v3 := ts.waitTerminal(t, "c2", 60*time.Second)
	if v3.State != StateDone || !v3.FromCache {
		t.Fatalf("repeat content: state %s fromCache %v, want done from cache", v3.State, v3.FromCache)
	}
	if got := counter(ts, "gpustl_server_cache_hits_total"); got <= hits0 {
		t.Fatalf("cache-hit counter did not move (%d -> %d)", hits0, got)
	}
	art2, err := ts.Result("c2")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(art, art2) {
		t.Fatal("cache served different bytes than the original run")
	}
}

// TestServedArtifactMatchesRun holds the server to the library: specs
// that differ only in the FC tolerance, Reverse or Instr are submitted
// in turn to one server, and each served artifact must equal what
// run.Run ships over the same environment. Each distinct spec must be
// simulated; only a byte-identical resubmission, from either tenant,
// may be served from the cache.
func TestServedArtifactMatchesRun(t *testing.T) {
	ts := startSrv(t, t.TempDir(), "t1", nil)
	ts.waitReady(t, 10*time.Second)

	tol := func(v float64) *float64 { return &v }
	inline := inlineLib(t, 6, 11)
	// On both libraries fctol 0 reverts a PTP that fctol 100 ships
	// compacted, and the generated one reverts another at fctol 5.
	rows := []struct {
		name string
		spec Spec
	}{
		{"inline fctol 100", Spec{STL: inline, Faults: 300, FCTol: tol(100)}},
		{"inline fctol 5", Spec{STL: inline, Faults: 300, FCTol: tol(5)}},
		{"inline fctol 0", Spec{STL: inline, Faults: 300, FCTol: tol(0)}},
		{"inline reverse", Spec{STL: inline, Faults: 300, FCTol: tol(5), Reverse: true}},
		{"inline instr", Spec{STL: inline, Faults: 300, FCTol: tol(5), Instr: true}},
		{"generated fctol 100", Spec{Target: "DU", N: 6, Seed: 1, Faults: 300, FCTol: tol(100)}},
		{"generated fctol 5", Spec{Target: "DU", N: 6, Seed: 1, Faults: 300, FCTol: tol(5)}},
		{"generated fctol 0", Spec{Target: "DU", N: 6, Seed: 1, Faults: 300, FCTol: tol(0)}},
	}
	served, shipped := make([][]byte, len(rows)), make([][]byte, len(rows))
	for i, r := range rows {
		e, err := buildEnv(&r.spec)
		if err != nil {
			t.Fatal(err)
		}
		copt := e.copt
		copt.Workers = 2
		rep, err := run.Run(context.Background(), e.cfg, e.ms, e.lib, copt, run.Options{FCTolerance: r.spec.fcTol()})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := stl.WriteSTL(&want, rep.Compacted); err != nil {
			t.Fatal(err)
		}
		shipped[i] = want.Bytes()

		id := fmt.Sprintf("c%d", i)
		sp := r.spec
		sp.Tenant = "acme"
		if _, err := ts.Submit(id, &sp); err != nil {
			t.Fatal(err)
		}
		v := ts.waitTerminal(t, id, 60*time.Second)
		if v.State != StateDone {
			t.Fatalf("%s: state %s (%s), want done", r.name, v.State, v.Error)
		}
		if v.FromCache {
			t.Errorf("%s: served from the cache, want a simulation", r.name)
		}
		if served[i], err = ts.Result(id); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served[i], want.Bytes()) {
			t.Errorf("%s: served a %d-byte artifact, run.Run ships %d bytes", r.name, len(served[i]), want.Len())
		}
	}
	for _, pair := range [][2]int{{0, 2}, {5, 6}, {6, 7}} {
		if bytes.Equal(shipped[pair[0]], shipped[pair[1]]) {
			t.Errorf("run.Run ships the same artifact for %s and %s; the fixture no longer exercises the FC tolerance",
				rows[pair[0]].name, rows[pair[1]].name)
		}
	}

	for i, r := range rows {
		for _, tenant := range []string{"acme", "umbrella"} {
			id := fmt.Sprintf("c%d-%s", i, tenant)
			sp := r.spec
			sp.Tenant = tenant
			if _, err := ts.Submit(id, &sp); err != nil {
				t.Fatal(err)
			}
			v := ts.waitTerminal(t, id, 60*time.Second)
			if v.State != StateDone || !v.FromCache {
				t.Fatalf("%s resubmitted by %s: state %s fromCache %v, want a cache hit", r.name, tenant, v.State, v.FromCache)
			}
			if got, err := ts.Result(id); err != nil || !bytes.Equal(got, served[i]) {
				t.Fatalf("%s resubmitted by %s: cache served other bytes (%v)", r.name, tenant, err)
			}
		}
	}
}

// TestResultCacheDetectsBitRot flips one byte of a cached artifact on
// disk and asserts the contract: the read is a verified miss (metric
// incremented, never served), and resubmission re-simulates and repairs
// the entry.
func TestResultCacheDetectsBitRot(t *testing.T) {
	dir := t.TempDir()
	ts := startSrv(t, dir, "t1", nil)
	ts.waitReady(t, 10*time.Second)

	sp := smallSpec(t)
	if _, err := ts.Submit("c1", sp); err != nil {
		t.Fatal(err)
	}
	if v := ts.waitTerminal(t, "c1", 60*time.Second); v.State != StateDone {
		t.Fatalf("campaign ended %s (%s)", v.State, v.Error)
	}
	clean, err := ts.Result("c1")
	if err != nil {
		t.Fatal(err)
	}

	// Rot exactly one byte of the only cache artifact.
	arts, err := filepath.Glob(filepath.Join(dir, "cache", "*.stl.json"))
	if err != nil || len(arts) != 1 {
		t.Fatalf("want exactly one cache artifact, got %v (%v)", arts, err)
	}
	b, err := os.ReadFile(arts[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(arts[0], b, 0o666); err != nil {
		t.Fatal(err)
	}

	corrupt0 := counter(ts, "gpustl_server_cache_corrupt_total")
	if _, err := ts.Result("c1"); !errors.Is(err, errNotCached) {
		t.Fatalf("corrupted entry: got %v, want errNotCached", err)
	}
	if got := counter(ts, "gpustl_server_cache_corrupt_total"); got != corrupt0+1 {
		t.Fatalf("corrupt counter %d, want %d", got, corrupt0+1)
	}

	// Same content again: the rotted entry is gone, so this must
	// re-simulate (no cache hit) and repair the cache.
	if _, err := ts.Submit("c2", sp); err != nil {
		t.Fatal(err)
	}
	v := ts.waitTerminal(t, "c2", 60*time.Second)
	if v.State != StateDone || v.FromCache {
		t.Fatalf("repair run: state %s fromCache %v, want done via re-simulation", v.State, v.FromCache)
	}
	repaired, err := ts.Result("c1")
	if err != nil {
		t.Fatalf("after repair: %v", err)
	}
	if !bytes.Equal(repaired, clean) {
		t.Fatal("repaired artifact differs from the original bytes")
	}
}

// TestCacheCorruptFailpoint drives the same contract through the
// "server.cache.corrupt" failpoint the chaos soak arms: the artifact is
// corrupted as written (the write itself reports success), so the first
// read must be the point of detection.
func TestCacheCorruptFailpoint(t *testing.T) {
	ctx := armed(t, "server.cache.corrupt", failpoint.Config{
		Kind: failpoint.KindCorrupt, Times: 1, Seed: 7,
	})
	ts := startSrvCtx(t, ctx, t.TempDir(), "t1", nil)
	ts.waitReady(t, 10*time.Second)
	sp := smallSpec(t)
	if _, err := ts.Submit("c1", sp); err != nil {
		t.Fatal(err)
	}
	if v := ts.waitTerminal(t, "c1", 60*time.Second); v.State != StateDone {
		t.Fatalf("campaign ended %s (%s)", v.State, v.Error)
	}
	// The journal says done, but the artifact was rotted in flight:
	// verification must refuse to serve it.
	if _, err := ts.Result("c1"); !errors.Is(err, errNotCached) {
		t.Fatalf("injected corruption: got %v, want errNotCached", err)
	}
	if got := counter(ts, "gpustl_server_cache_corrupt_total"); got == 0 {
		t.Fatal("corrupt counter never moved")
	}
	// Resubmission re-simulates (failpoint budget is spent → clean put).
	if _, err := ts.Submit("c2", sp); err != nil {
		t.Fatal(err)
	}
	if v := ts.waitTerminal(t, "c2", 60*time.Second); v.State != StateDone || v.FromCache {
		t.Fatalf("repair run: state %s fromCache %v", v.State, v.FromCache)
	}
	if _, err := ts.Result("c1"); err != nil {
		t.Fatalf("after repair: %v", err)
	}
}

// TestJournalAppendFailureIsFailStop arms "server.journal.append": an
// append that cannot be made durable must crash the server (never
// continue on in-memory-only state), and a restart must come back
// without the unjournaled campaign.
func TestJournalAppendFailureIsFailStop(t *testing.T) {
	ctx := armed(t, "server.journal.append", failpoint.Config{
		Kind: failpoint.KindError, Times: 1, Seed: 7,
	})
	dir := t.TempDir()
	a := startSrvCtx(t, ctx, dir, "srv", nil)
	a.waitReady(t, 10*time.Second)
	if _, err := a.Submit("c1", smallSpec(t)); err == nil {
		t.Fatal("submit with a failing journal append reported success")
	}
	select {
	case err := <-a.done:
		if err == nil {
			t.Fatal("crashed server returned a nil Run error")
		}
		a.done <- err
	case <-time.After(10 * time.Second):
		t.Fatal("server did not fail-stop after an append failure")
	}

	// Restart (same holder name → instant lease re-acquisition). The
	// failed submit was never durable, so it must be gone; new work runs.
	b := startSrv(t, dir, "srv", nil)
	b.waitReady(t, 10*time.Second)
	if _, ok := b.Get("c1"); ok {
		t.Fatal("unjournaled campaign survived the restart")
	}
	if _, err := b.Submit("c2", smallSpec(t)); err != nil {
		t.Fatal(err)
	}
	if v := b.waitTerminal(t, "c2", 60*time.Second); v.State != StateDone {
		t.Fatalf("post-restart campaign ended %s (%s)", v.State, v.Error)
	}
}

// TestLeaseRenewalFailureIsFailStop arms "server.lease.expire": a
// server that cannot renew its lease must assume a successor is coming
// and crash rather than keep writing.
func TestLeaseRenewalFailureIsFailStop(t *testing.T) {
	ctx := armed(t, "server.lease.expire", failpoint.Config{
		Kind: failpoint.KindError, Times: 1, Seed: 7,
	})
	ts := startSrvCtx(t, ctx, t.TempDir(), "srv", nil)
	ts.waitReady(t, 10*time.Second)
	select {
	case err := <-ts.done:
		if err == nil || !strings.Contains(err.Error(), "lease") {
			t.Fatalf("Run returned %v, want a lease-loss crash", err)
		}
		ts.done <- err
	case <-time.After(10 * time.Second):
		t.Fatal("server kept running without a renewable lease")
	}
	if got := counter(ts, "gpustl_server_lease_lost_total"); got != 1 {
		t.Fatalf("lease-lost counter %d, want 1", got)
	}
}

// TestLeaseTakeover kills a server mid-campaign and asserts a second
// server on the same state dir waits out the lease, adopts the orphan,
// and finishes it from its run WAL.
func TestLeaseTakeover(t *testing.T) {
	dir := t.TempDir()
	// A's fleet hook blocks: c1 journals "running" and then parks, so
	// the kill deterministically lands mid-campaign.
	gate := make(chan struct{})
	a := startSrv(t, dir, "a", func(o *Options) {
		o.Fleet = func() (core.FaultSimulator, error) { <-gate; return nil, nil }
	})
	a.waitReady(t, 10*time.Second)
	sp := slowSpec(t)
	if _, err := a.Submit("c1", sp); err != nil {
		t.Fatal(err)
	}
	// B comes up against a held lease: it must block, not ready.
	b := startSrv(t, dir, "b", nil)
	time.Sleep(50 * time.Millisecond)
	if b.Ready() {
		t.Fatal("second server became ready while the first held the lease")
	}

	// Wait until the campaign has journaled "running", then kill A.
	// Unblocking the gate afterwards lets A's parked executor observe
	// the crash and exit (a real SIGKILL would not need the courtesy).
	deadline := time.Now().Add(30 * time.Second)
	for {
		if v, ok := a.Get("c1"); ok && v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	a.Kill()
	close(gate)
	select {
	case err := <-a.done:
		a.done <- err
	case <-time.After(10 * time.Second):
		t.Fatal("killed server did not stop")
	}

	// B must take over after the lease TTL and finish the campaign.
	b.waitReady(t, 10*time.Second)
	if got := counter(b, "gpustl_server_campaigns_adopted_total"); got != 1 {
		t.Fatalf("adopted counter %d, want 1", got)
	}
	v := b.waitTerminal(t, "c1", 120*time.Second)
	if v.State != StateDone {
		t.Fatalf("adopted campaign ended %s (%s)", v.State, v.Error)
	}
	if _, err := b.Result("c1"); err != nil {
		t.Fatalf("adopted campaign's artifact: %v", err)
	}
}

// TestHTTPQuotaAndReadyz drives the HTTP surface: per-tenant quota maps
// to 429 + Retry-After, other tenants are unaffected, and /readyz
// carries the queue JSON body on both sides of ready.
func TestHTTPQuotaAndReadyz(t *testing.T) {
	ts := startSrv(t, t.TempDir(), "t1", func(o *Options) {
		o.TenantQuota = 1
	})
	ts.waitReady(t, 10*time.Second)
	h := ts.Handler()

	post := func(id, tenant string, sp *Spec) *httptest.ResponseRecorder {
		sp.Tenant = tenant
		body, err := json.Marshal(submitReq{ID: id, Spec: *sp})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/api/v1/campaigns", bytes.NewReader(body)))
		return w
	}

	if w := post("q1", "acme", slowSpec(t)); w.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", w.Code, w.Body)
	}
	// Tenant over quota: 429 with a Retry-After hint.
	w := post("q2", "acme", slowSpec(t))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Another tenant is unaffected.
	if w := post("q3", "umbrella", smallSpec(t)); w.Code != http.StatusAccepted {
		t.Fatalf("other tenant: %d %s", w.Code, w.Body)
	}

	// /readyz: 200 with the queue JSON while live.
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/readyz", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("/readyz: %d %s", rw.Code, rw.Body)
	}
	var rz readyzBody
	if err := json.Unmarshal(rw.Body.Bytes(), &rz); err != nil {
		t.Fatalf("/readyz body: %v", err)
	}
	if !rz.Ready || rz.Server != "t1" || rz.QueueDepth+rz.InFlight < 2 {
		t.Fatalf("/readyz body %+v: want ready, 2 campaigns visible", rz)
	}

	ts.waitTerminal(t, "q1", 120*time.Second)
	ts.waitTerminal(t, "q3", 120*time.Second)

	// A killed server's /readyz flips to 503 but still carries the body.
	ts.Kill()
	select {
	case err := <-ts.done:
		ts.done <- err
	case <-time.After(10 * time.Second):
		t.Fatal("killed server did not stop")
	}
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/readyz", nil))
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("killed /readyz: %d", rw.Code)
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &rz); err != nil || rz.Ready {
		t.Fatalf("killed /readyz body %s (%v): want ready=false JSON", rw.Body, err)
	}
}
