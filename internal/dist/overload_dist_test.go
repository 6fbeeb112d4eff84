package dist

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gpustl/internal/failpoint"
	"gpustl/internal/fault"
	"gpustl/internal/obs"
	"gpustl/internal/overload"
)

// failNTransport fails its first n Simulate calls with a genuine error
// (n < 0: fails forever), succeeding after. Pings always succeed — the
// worker is alive, just broken.
type failNTransport struct {
	inner Transport
	mu    sync.Mutex
	n     int
}

func (f *failNTransport) Name() string                   { return f.inner.Name() }
func (f *failNTransport) Close() error                   { return f.inner.Close() }
func (f *failNTransport) Ping(ctx context.Context) error { return f.inner.Ping(ctx) }

func (f *failNTransport) Simulate(ctx context.Context, req *ShardRequest) (*ShardResult, error) {
	f.mu.Lock()
	fail := f.n != 0
	if f.n > 0 {
		f.n--
	}
	f.mu.Unlock()
	if fail {
		return nil, errors.New("dist: test: injected worker failure")
	}
	return f.inner.Simulate(ctx, req)
}

// TestBusyRerouteNoFailureCharge pins down the 429 contract: a
// saturated worker's bounce ("dist.reply.busy") reroutes the shard with
// no failure charge — Retries stays 0, the merge stays byte-identical.
func TestBusyRerouteNoFailureCharge(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(61)), m.Lanes, 256)

	serial := newSPCampaign(t, m, 500, 61)
	wantRep := serialReport(t, serial, stream)

	brown := WithFailpoints(NewLocal("brown"), fpSet(t, map[string]failpoint.Config{
		"dist.reply.busy": {Kind: failpoint.KindError, Delay: 2 * time.Millisecond, Times: 2},
	}))
	co, err := New(fastOptions(), brown, NewLocal("steady"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	camp := newSPCampaign(t, m, 500, 61)
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, res.Report, wantRep)
	st := res.Stats
	if st.BusyReplies == 0 {
		t.Fatalf("brownout never bounced a dispatch: %+v", st)
	}
	if st.Retries != 0 {
		t.Fatalf("busy bounce charged as a retry: %+v", st)
	}
	if st.BreakerOpens != 0 {
		t.Fatalf("busy bounce tripped a breaker: %+v", st)
	}
}

// TestRetryBudgetExhaustion pins down fail-fast under a spent budget:
// with every worker broken and one banked retry token, the coordinator
// stops retrying long before MaxAttempts and fails the run as
// overloaded instead of storming the fleet. The metrics record the
// failed run: the denied retry and the one shard that ended it.
func TestRetryBudgetExhaustion(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(62)), m.Lanes, 128)

	reg := obs.NewRegistry()
	opt := fastOptions()
	opt.MaxAttempts = 8
	opt.RetryBudget = 0.001 // effectively: just the banked burst
	opt.RetryBurst = 1
	opt.HedgeFraction = -1
	opt.Metrics = reg
	co, err := New(opt,
		&failNTransport{inner: NewLocal("dead1"), n: -1},
		&failNTransport{inner: NewLocal("dead2"), n: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	camp := newSPCampaign(t, m, 300, 62)
	_, err = co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err == nil {
		t.Fatal("broken fleet must fail the run")
	}
	if !errors.Is(err, overload.ErrOverloaded) {
		t.Fatalf("budget-denied run must wrap ErrOverloaded: %v", err)
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("error does not name the budget: %v", err)
	}
	if camp.Detected() != 0 {
		t.Fatalf("failed run committed %d detections", camp.Detected())
	}
	snap := reg.Snapshot()
	if n := snap.Counters["gpustl_dist_retries_total"]; n > 1 {
		t.Fatalf("retries %d exceed the 1-token budget", n)
	}
	if n := snap.Counters["gpustl_dist_retry_denied_total"]; n < 1 {
		t.Fatalf("gpustl_dist_retry_denied_total = %d, want at least 1", n)
	}
	if n := snap.Counters["gpustl_dist_failed_shards_total"]; n != 1 {
		t.Fatalf("gpustl_dist_failed_shards_total = %d, want 1", n)
	}
	if n := snap.Counters["gpustl_dist_runs_total"]; n != 1 {
		t.Fatalf("gpustl_dist_runs_total = %d, want 1", n)
	}
}

// TestBreakerTripsAndRoutesAround pins down the breaker lifecycle in
// the coordinator: a persistently failing worker trips open, later work
// routes around it, the merge stays byte-identical, and the open state
// persists into the next Run on the same coordinator.
func TestBreakerTripsAndRoutesAround(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(63)), m.Lanes, 256)

	serial := newSPCampaign(t, m, 600, 63)
	wantRep := serialReport(t, serial, stream)

	reg := obs.NewRegistry()
	opt := fastOptions()
	opt.MaxAttempts = 8
	// Ten shards start five per worker: the sick worker fails five first
	// attempts in a row, which trips it open (the threshold is 5).
	opt.Shards = 10
	opt.MaxBackoff = time.Minute // the open cool-down: stays open for the whole test
	opt.HedgeFraction = -1
	opt.Metrics = reg
	co, err := New(opt, &failNTransport{inner: NewLocal("sick"), n: -1}, NewLocal("healthy"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	camp := newSPCampaign(t, m, 600, 63)
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, res.Report, wantRep)
	if res.Stats.BreakerOpens < 1 {
		t.Fatalf("sick worker never tripped its breaker: %+v", res.Stats)
	}
	snap := reg.Snapshot()
	if g := snap.Gauges[`gpustl_dist_breaker_state{worker="sick"}`]; g != 1 {
		t.Errorf("sick breaker-state gauge = %v, want 1 (open)", g)
	}
	if g := snap.Gauges[`gpustl_dist_breaker_state{worker="healthy"}`]; g != 0 {
		t.Errorf("healthy breaker-state gauge = %v, want 0 (closed)", g)
	}
	if got := snap.Counters["gpustl_dist_breaker_opens_total"]; got != uint64(res.Stats.BreakerOpens) {
		t.Errorf("breaker opens counter = %d, want %d", got, res.Stats.BreakerOpens)
	}

	// Second run on the same coordinator: the breaker is still open, so
	// the sick worker is never dispatched to — zero failures, zero new
	// trips (BreakerOpens is a per-run delta).
	camp2 := newSPCampaign(t, m, 400, 64)
	res2, err := co.Run(context.Background(), camp2, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Retries != 0 || res2.Stats.BreakerOpens != 0 {
		t.Fatalf("open breaker not honored across runs: %+v", res2.Stats)
	}
}

// TestDeadlineHeaderWorkerSide pins down X-Gpustl-Deadline server
// handling: an expired deadline is refused with 504 before any work, a
// malformed one with 400, and a future one still simulates.
func TestDeadlineHeaderWorkerSide(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(66)), m.Lanes, 64)
	camp := newSPCampaign(t, m, 100, 66)
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewHandlerOptions("dlw", WorkerOptions{Metrics: reg}))
	defer srv.Close()

	body := func() io.Reader {
		data, err := marshalShardRequest(&ShardRequest{
			Shard: 0, Attempt: 0, Module: m.Kind, Lanes: m.Lanes,
			Faults: camp.Faults(), Stream: stream,
		})
		if err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(data)
	}
	post := func(deadline string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, srv.URL+simulatePath, body())
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", frameContentType)
		if deadline != "" {
			req.Header.Set(deadlineHeader, deadline)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { res.Body.Close() })
		return res
	}

	expired := strconv.FormatInt(time.Now().Add(-time.Second).UnixNano(), 10)
	if res := post(expired); res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: HTTP %d, want 504", res.StatusCode)
	}
	if got := reg.Snapshot().Counters["gpustl_worker_expired_total"]; got != 1 {
		t.Fatalf("expired counter = %d, want 1", got)
	}
	if res := post("not-a-number"); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline: HTTP %d, want 400", res.StatusCode)
	}
	future := strconv.FormatInt(time.Now().Add(time.Minute).UnixNano(), 10)
	if res := post(future); res.StatusCode != http.StatusOK {
		t.Fatalf("future deadline: HTTP %d, want 200", res.StatusCode)
	}
	if res := post(""); res.StatusCode != http.StatusOK {
		t.Fatalf("no deadline: HTTP %d, want 200", res.StatusCode)
	}
}

// TestDeadlineHeaderClientSide pins down that the HTTP transport stamps
// the dispatch deadline onto the request.
func TestDeadlineHeaderClientSide(t *testing.T) {
	var got atomic_string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.store(r.Header.Get(deadlineHeader))
		http.Error(w, "go away", http.StatusInternalServerError)
	}))
	defer srv.Close()
	tr := NewHTTP(srv.URL)
	defer tr.Close()

	dl := time.Now().Add(time.Minute)
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	defer cancel()
	_, _ = tr.Simulate(ctx, &ShardRequest{})
	ns, err := strconv.ParseInt(got.load(), 10, 64)
	if err != nil {
		t.Fatalf("deadline header %q unparsable: %v", got.load(), err)
	}
	if !time.Unix(0, ns).Equal(dl) {
		t.Fatalf("deadline header = %v, want %v", time.Unix(0, ns), dl)
	}

	got.store("unset")
	_, _ = tr.Simulate(context.Background(), &ShardRequest{})
	if got.load() != "" {
		t.Fatalf("deadline header sent without a ctx deadline: %q", got.load())
	}
}

type atomic_string struct {
	mu sync.Mutex
	s  string
}

func (a *atomic_string) store(s string) { a.mu.Lock(); a.s = s; a.mu.Unlock() }
func (a *atomic_string) load() string   { a.mu.Lock(); defer a.mu.Unlock(); return a.s }

// TestWorkerBackpressure429 pins down the saturated-worker contract:
// past the bounded accept queue the worker answers 429 + Retry-After,
// the client surfaces ErrBusy with the hint, /readyz flips not-ready,
// and /livez stays alive throughout.
func TestWorkerBackpressure429(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(67)), m.Lanes, 64)
	camp := newSPCampaign(t, m, 100, 67)
	reg := obs.NewRegistry()
	h := NewHandlerOptions("bp", WorkerOptions{
		MaxConcurrent: 1, MaxQueue: 1, RetryAfter: 2 * time.Second, Metrics: reg,
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	tr := NewHTTP(srv.URL)
	defer tr.Close()
	req := &ShardRequest{
		Shard: 0, Attempt: 0, Module: m.Kind, Lanes: m.Lanes,
		Faults: camp.Faults(), Stream: stream,
	}

	status := func(path string) int {
		res, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		return res.StatusCode
	}
	if status(readyzPath) != http.StatusOK || status(livezPath) != http.StatusOK {
		t.Fatal("fresh worker must be ready and live")
	}

	// Saturate: take the only slot, then fill the accept queue.
	relSlot, ok := h.slots.TryAcquire(context.Background(), 1)
	if !ok {
		t.Fatal("could not occupy the slot")
	}
	waiterRel := make(chan func(), 1)
	go func() {
		rel, err := h.slots.Acquire(context.Background(), 1)
		if err != nil {
			t.Error(err)
		}
		waiterRel <- rel
	}()
	deadline := time.Now().Add(2 * time.Second)
	for h.slots.QueueLen() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(100 * time.Microsecond)
	}

	if status(readyzPath) != http.StatusServiceUnavailable {
		t.Fatal("saturated worker must be not-ready")
	}
	if status(livezPath) != http.StatusOK || status(healthPath) != http.StatusOK {
		t.Fatal("saturated worker must stay live and heartbeat-healthy")
	}
	_, err := tr.Simulate(context.Background(), req)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("saturated worker: want ErrBusy, got %v", err)
	}
	var be *BusyError
	if !errors.As(err, &be) || be.After != 2*time.Second {
		t.Fatalf("Retry-After hint lost: %v", err)
	}
	if got := reg.Snapshot().Counters["gpustl_worker_busy_replies_total"]; got != 1 {
		t.Fatalf("busy counter = %d, want 1", got)
	}

	// Free the capacity: ready again, and the shard goes through.
	relSlot()
	(<-waiterRel)()
	if status(readyzPath) != http.StatusOK {
		t.Fatal("freed worker must be ready again")
	}
	if _, err := tr.Simulate(context.Background(), req); err != nil {
		t.Fatalf("freed worker refused a shard: %v", err)
	}

	// Drain: not-ready (draining), still live.
	h.StartDrain()
	if status(readyzPath) != http.StatusServiceUnavailable || status(livezPath) != http.StatusOK {
		t.Fatal("draining worker must be not-ready but live")
	}
}

// TestWorkerMemoryAccounting429 pins down the per-request byte bound:
// with the in-flight byte budget spent, a new shard request bounces
// with 429 in microseconds (TryAcquire — the bytes pool never queues),
// and flows again once the budget frees. (A single request bigger than
// the whole budget is clamped and admitted alone, by design.)
func TestWorkerMemoryAccounting429(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandlerOptions("tiny", WorkerOptions{MaxInflightBytes: 64, Metrics: reg})
	srv := httptest.NewServer(h)
	defer srv.Close()
	tr := NewHTTP(srv.URL)
	defer tr.Close()

	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(68)), m.Lanes, 64)
	camp := newSPCampaign(t, m, 100, 68)
	req := &ShardRequest{Module: m.Kind, Lanes: m.Lanes, Faults: camp.Faults(), Stream: stream}

	hold, ok := h.bytes.TryAcquire(context.Background(), 64) // spend the whole byte budget
	if !ok {
		t.Fatal("could not pre-fill the bytes pool")
	}
	_, err := tr.Simulate(context.Background(), req)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("full bytes pool: want ErrBusy, got %v", err)
	}
	shed := reg.Snapshot().Counters[`gpustl_overload_shed_total{pool="worker_bytes",reason="queue_full"}`]
	if shed != 1 {
		t.Fatalf("bytes-pool shed counter = %d, want 1", shed)
	}
	hold()
	if _, err := tr.Simulate(context.Background(), req); err != nil {
		t.Fatalf("freed bytes pool refused a shard: %v", err)
	}
}

// marshalShardRequest keeps the test body honest about the wire format
// without exporting anything new.
func marshalShardRequest(req *ShardRequest) ([]byte, error) {
	return encodeShardFrame(req)
}
