package overload

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"gpustl/internal/failpoint"
	"gpustl/internal/obs"
)

func TestFakeClock(t *testing.T) {
	c := NewFakeClock(time.Unix(1000, 0))
	ch := c.After(5 * time.Second)
	select {
	case <-ch:
		t.Fatal("fired before Advance")
	default:
	}
	c.Advance(4 * time.Second)
	select {
	case <-ch:
		t.Fatal("fired early")
	default:
	}
	c.Advance(time.Second)
	select {
	case <-ch:
	default:
		t.Fatal("did not fire at due time")
	}
	if got := c.Now(); !got.Equal(time.Unix(1005, 0)) {
		t.Fatalf("Now = %v", got)
	}
	// After(<=0) fires immediately.
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) should be ready")
	}
}

func TestAdmissionFastPath(t *testing.T) {
	a := NewAdmission(AdmissionOptions{Capacity: 100, MaxQueue: 4})
	rel, err := a.Acquire(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Inflight(); got != 60 {
		t.Fatalf("inflight = %d", got)
	}
	rel()
	rel() // release is once-only; double call must not underflow
	if got := a.Inflight(); got != 0 {
		t.Fatalf("inflight after release = %d", got)
	}
	if a.Admitted() != 1 || a.Shed() != 0 {
		t.Fatalf("admitted=%d shed=%d", a.Admitted(), a.Shed())
	}
}

func TestAdmissionQueueFIFO(t *testing.T) {
	a := NewAdmission(AdmissionOptions{Capacity: 10, MaxQueue: 4})
	rel, err := a.Acquire(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	type got struct {
		idx int
		err error
	}
	order := make(chan got, 2)
	start := make(chan struct{})
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			if i == 1 {
				<-start // enqueue 0 first, then 1: FIFO order is observable
			}
			r, err := a.Acquire(context.Background(), 6)
			order <- got{i, err}
			if err == nil {
				time.Sleep(5 * time.Millisecond)
				r()
			}
		}()
		waitQueueLen(t, a, i+1)
		if i == 0 {
			close(start)
		}
	}
	rel()
	first := <-order
	if first.err != nil || first.idx != 0 {
		t.Fatalf("first grant = %+v, want waiter 0", first)
	}
	second := <-order
	if second.err != nil || second.idx != 1 {
		t.Fatalf("second grant = %+v, want waiter 1", second)
	}
}

func waitQueueLen(t *testing.T, a *Admission, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for a.QueueLen() < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", n, a.QueueLen())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestAdmissionShedQueueFull(t *testing.T) {
	m := obs.NewRegistry()
	a := NewAdmission(AdmissionOptions{Capacity: 1, MaxQueue: 0, Metrics: m, Name: "t"})
	rel, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if _, err := a.Acquire(context.Background(), 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	snap := m.Snapshot()
	if snap.Counters[`gpustl_overload_shed_total{pool="t",reason="queue_full"}`] != 1 {
		t.Fatalf("shed counter missing: %v", snap.Counters)
	}
}

func TestAdmissionShedDeadline(t *testing.T) {
	a := NewAdmission(AdmissionOptions{Capacity: 1, MaxQueue: 4})
	rel, _ := a.Acquire(context.Background(), 1)
	defer rel()

	// Expired on arrival: shed without queueing.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := a.Acquire(ctx, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expired-on-arrival: want ErrOverloaded, got %v", err)
	}
	if a.QueueLen() != 0 {
		t.Fatal("dead-on-arrival request was queued")
	}

	// Dies while waiting: shed when the context does.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx2, 1)
		done <- err
	}()
	waitQueueLen(t, a, 1)
	cancel2()
	if err := <-done; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("canceled waiter: want ErrOverloaded, got %v", err)
	}
	if a.QueueLen() != 0 {
		t.Fatal("canceled waiter left in queue")
	}
}

func TestAdmissionCostClamp(t *testing.T) {
	a := NewAdmission(AdmissionOptions{Capacity: 10, MaxQueue: 0})
	rel, err := a.Acquire(context.Background(), 1<<40) // larger than the pool: clamped, runs alone
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Inflight(); got != 10 {
		t.Fatalf("clamped inflight = %d", got)
	}
	rel()
}

func TestAdmissionTryAcquire(t *testing.T) {
	a := NewAdmission(AdmissionOptions{Capacity: 5, MaxQueue: 8})
	rel, ok := a.TryAcquire(context.Background(), 5)
	if !ok {
		t.Fatal("first TryAcquire refused")
	}
	if _, ok := a.TryAcquire(context.Background(), 1); ok {
		t.Fatal("saturated TryAcquire admitted")
	}
	rel()
	rel2, ok := a.TryAcquire(context.Background(), 1)
	if !ok {
		t.Fatal("TryAcquire after release refused")
	}
	rel2()
}

func TestAdmissionNil(t *testing.T) {
	var a *Admission
	rel, err := a.Acquire(context.Background(), 1<<60)
	if err != nil || rel == nil {
		t.Fatalf("nil admission must admit: %v", err)
	}
	rel()
	rel2, ok := a.TryAcquire(context.Background(), 1)
	if !ok {
		t.Fatal("nil TryAcquire refused")
	}
	rel2()
	if a.Inflight() != 0 || a.QueueLen() != 0 || a.Admitted() != 0 || a.Shed() != 0 {
		t.Fatal("nil accessors must be zero")
	}
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

func TestAdmissionFailpointShed(t *testing.T) {
	ctx := armed(t, "overload.admit.shed", failpoint.Config{Kind: failpoint.KindError, Times: 1})
	a := NewAdmission(AdmissionOptions{Capacity: 100, MaxQueue: 4})
	if _, err := a.Acquire(ctx, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("armed shed site: want ErrOverloaded, got %v", err)
	}
	if rel, err := a.Acquire(ctx, 1); err != nil { // Times:1 exhausted
		t.Fatalf("second acquire should pass: %v", err)
	} else {
		rel()
	}
	if a.Shed() != 1 {
		t.Fatalf("shed = %d", a.Shed())
	}
}

func TestAdmissionFailpointDelay(t *testing.T) {
	ctx := armed(t, "overload.admit.delay", failpoint.Config{Kind: failpoint.KindDelay, Delay: 2 * time.Millisecond, Times: 1})
	a := NewAdmission(AdmissionOptions{Capacity: 100, MaxQueue: 4})
	t0 := time.Now()
	rel, err := a.Acquire(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if d := time.Since(t0); d < 2*time.Millisecond {
		t.Fatalf("delay site did not delay (%v)", d)
	}
	// Armed as an error kind, the delay site degrades into a shed.
	ctx = armed(t, "overload.admit.delay", failpoint.Config{Kind: failpoint.KindError, Times: 1})
	if _, err := a.Acquire(ctx, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("error-armed delay site: want ErrOverloaded, got %v", err)
	}
}

func TestRetryBudget(t *testing.T) {
	m := obs.NewRegistry()
	b := NewRetryBudget("test", 0.5, 2, m)
	// Starts full: 2 tokens.
	if !b.Allow() || !b.Allow() {
		t.Fatal("burst tokens should allow 2 retries")
	}
	if b.Allow() {
		t.Fatal("empty bucket allowed a retry")
	}
	b.OnRequest() // +0.5 — still under 1 whole token
	if b.Allow() {
		t.Fatal("half a token allowed a retry")
	}
	b.OnRequest() // +0.5 = 1.0
	if !b.Allow() {
		t.Fatal("earned token denied")
	}
	for i := 0; i < 100; i++ {
		b.OnRequest()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("tokens should cap at burst: %g", got)
	}
	snap := m.Snapshot()
	if snap.Counters[`gpustl_overload_retries_denied_total{budget="test"}`] != 2 {
		t.Fatalf("denied counter: %v", snap.Counters)
	}
	if snap.Counters[`gpustl_overload_retry_tokens_spent_total{budget="test"}`] != 3 {
		t.Fatalf("spent counter: %v", snap.Counters)
	}
}

func TestRetryBudgetDisabledAndNil(t *testing.T) {
	if b := NewRetryBudget("test", -1, 10, nil); b != nil {
		t.Fatal("negative ratio should disable (nil)")
	}
	if b := NewRetryBudget("test", 0.1, 0, nil); b != nil {
		t.Fatal("zero burst should disable (nil)")
	}
	var b *RetryBudget
	for i := 0; i < 1000; i++ {
		if !b.Allow() {
			t.Fatal("nil budget must always allow")
		}
	}
	b.OnRequest()
}

func TestAdmissionMetrics(t *testing.T) {
	m := obs.NewRegistry()
	a := NewAdmission(AdmissionOptions{Capacity: 2, MaxQueue: 2, Metrics: m, Name: "camp"})
	rel, _ := a.Acquire(context.Background(), 2)
	done := make(chan struct{})
	go func() {
		r, err := a.Acquire(context.Background(), 1)
		if err == nil {
			r()
		}
		close(done)
	}()
	waitQueueLen(t, a, 1)
	rel()
	<-done
	snap := m.Snapshot()
	if snap.Counters[`gpustl_overload_admitted_total{pool="camp"}`] != 2 {
		t.Fatalf("admitted: %v", snap.Counters)
	}
	if snap.Counters[`gpustl_overload_queued_total{pool="camp"}`] != 1 {
		t.Fatalf("queued: %v", snap.Counters)
	}
	h := snap.Histograms[`gpustl_overload_queue_wait_seconds{pool="camp"}`]
	if h.Count != 2 {
		t.Fatalf("wait histogram count = %d", h.Count)
	}
	var buf strings.Builder
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gpustl_overload_admitted_total") {
		t.Fatal("prometheus output missing overload series")
	}
}

// BenchmarkAdmissionAcquireRelease is the uncontended admission
// overhead — the cost every admitted campaign pays.
func BenchmarkAdmissionAcquireRelease(b *testing.B) {
	a := NewAdmission(AdmissionOptions{Capacity: 1 << 40, MaxQueue: 16})
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rel, err := a.Acquire(ctx, 1024)
		if err != nil {
			b.Fatal(err)
		}
		rel()
	}
}

// BenchmarkAdmissionShed is the shed latency — how fast a refused
// caller learns its fate. Shedding must be cheap: its entire value is
// failing fast.
func BenchmarkAdmissionShed(b *testing.B) {
	a := NewAdmission(AdmissionOptions{Capacity: 1, MaxQueue: 0})
	rel, err := a.Acquire(context.Background(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer rel()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Acquire(ctx, 1); !errors.Is(err, ErrOverloaded) {
			b.Fatal("expected shed")
		}
	}
}

// BenchmarkAdmissionNil is the disarmed fast path: what "no limits
// configured" costs at the admission call site.
func BenchmarkAdmissionNil(b *testing.B) {
	var a *Admission
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rel, _ := a.Acquire(ctx, 1024)
		rel()
	}
}

func BenchmarkRetryBudget(b *testing.B) {
	rb := NewRetryBudget("bench", 0.1, 64, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rb.OnRequest()
		rb.Allow()
	}
}
