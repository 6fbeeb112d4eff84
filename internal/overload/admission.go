package overload

import (
	"context"
	"sync"
	"time"

	"gpustl/internal/failpoint"
	"gpustl/internal/obs"
)

// Failpoints. overload.admit.shed forces Acquire to shed as if the
// pool were saturated (the chaos harness uses it to prove callers
// survive ErrOverloaded on any campaign); overload.admit.delay injects
// latency into the admission decision itself (a slow admission path
// must still be correct, and with a deadline it degenerates into a
// shed).
var (
	fpAdmitShed  = failpoint.New("overload.admit.shed")
	fpAdmitDelay = failpoint.New("overload.admit.delay")
)

// Shed reasons, used as the reason label on gpustl_overload_shed_total.
const (
	ShedQueueFull = "queue_full" // wait queue at MaxQueue
	ShedDeadline  = "deadline"   // caller's deadline expired before a slot freed
	ShedInjected  = "injected"   // overload.admit.shed fired
)

// AdmissionOptions configures an Admission pool.
type AdmissionOptions struct {
	// Capacity bounds the summed cost of admitted-but-unreleased work.
	// A request costing more than Capacity is clamped to it (it can
	// still run — alone). Must be > 0.
	Capacity int64
	// MaxQueue bounds how many callers may wait for a slot; a caller
	// arriving with the queue full is shed immediately. 0 means no
	// queueing at all: saturated ⇒ shed.
	MaxQueue int
	// Clock defaults to SystemClock. Tests inject a FakeClock.
	Clock Clock
	// Metrics receives gpustl_overload_* series; nil disables.
	Metrics *obs.Registry
	// Name labels this pool's metric series (pool="<name>").
	Name string
}

// Admission is a weighted semaphore with a bounded FIFO wait queue and
// deadline-aware shedding. Acquire admits work whose summed cost fits
// under Capacity; otherwise the caller queues (up to MaxQueue deep)
// until a release frees enough capacity or its context dies — whichever
// comes first. Every refusal is the explicit, fast ErrOverloaded.
//
// A nil *Admission admits everything instantly: callers wire admission
// unconditionally and "no limits configured" costs one branch.
type Admission struct {
	capacity int64
	maxQueue int
	clock    Clock

	mu       sync.Mutex
	inflight int64
	waiters  []*waiter

	admittedN uint64
	shedN     uint64

	// metric handles (nil-safe when Metrics was nil)
	mAdmitted   *obs.Counter
	mQueued     *obs.Counter
	mShed       map[string]*obs.Counter
	mInflight   *obs.Gauge
	mQueueDepth *obs.Gauge
	mWait       *obs.Histogram
}

type waiter struct {
	cost    int64
	grant   chan struct{}
	enq     time.Time
	granted bool
}

// NewAdmission creates an admission pool. Panics if Capacity <= 0 — an
// unlimited pool is spelled as a nil *Admission, not a zero capacity.
func NewAdmission(o AdmissionOptions) *Admission {
	if o.Capacity <= 0 {
		panic("overload: NewAdmission with Capacity <= 0 (use a nil *Admission for no limit)")
	}
	if o.Clock == nil {
		o.Clock = SystemClock()
	}
	a := &Admission{capacity: o.Capacity, maxQueue: o.MaxQueue, clock: o.Clock}
	if m := o.Metrics; m != nil {
		lab := `{pool="` + o.Name + `"}`
		a.mAdmitted = m.Counter("gpustl_overload_admitted_total" + lab)
		a.mQueued = m.Counter("gpustl_overload_queued_total" + lab)
		a.mShed = map[string]*obs.Counter{}
		for _, reason := range []string{ShedQueueFull, ShedDeadline, ShedInjected} {
			a.mShed[reason] = m.Counter(`gpustl_overload_shed_total{pool="` + o.Name + `",reason="` + reason + `"}`)
		}
		a.mInflight = m.Gauge("gpustl_overload_inflight_cost" + lab)
		a.mQueueDepth = m.Gauge("gpustl_overload_queue_depth" + lab)
		a.mWait = m.Histogram("gpustl_overload_queue_wait_seconds"+lab, obs.DefQueueBuckets())
	}
	return a
}

// Acquire admits cost units of work, blocking in FIFO order while the
// pool is saturated, and returns a release function that must be called
// exactly once when the work completes. It returns ErrOverloaded — and
// a nil release — when the wait queue is full, when ctx dies before a
// slot frees, or when the caller's deadline has already expired on
// arrival. On a nil *Admission it admits immediately.
func (a *Admission) Acquire(ctx context.Context, cost int64) (release func(), err error) {
	if a == nil {
		return func() {}, nil
	}
	if _, fired := fpAdmitShed.Eval(ctx); fired {
		a.shed(ShedInjected)
		return nil, ErrOverloaded
	}
	// A delay-armed site sleeps here; any error kind is treated as a
	// shed so chaos can also arm it as a hard failure.
	if ierr := fpAdmitDelay.Inject(ctx); ierr != nil {
		a.shed(ShedInjected)
		return nil, ErrOverloaded
	}
	if cost < 1 {
		cost = 1
	}
	if cost > a.capacity {
		cost = a.capacity
	}
	// Dead on arrival: never queue work that cannot possibly finish.
	if err := ctx.Err(); err != nil {
		a.shed(ShedDeadline)
		return nil, ErrOverloaded
	}
	if dl, ok := ctx.Deadline(); ok && !a.clock.Now().Before(dl) {
		a.shed(ShedDeadline)
		return nil, ErrOverloaded
	}

	a.mu.Lock()
	if len(a.waiters) == 0 && a.inflight+cost <= a.capacity {
		a.inflight += cost
		a.admittedN++
		a.mInflight.Set(float64(a.inflight))
		a.mu.Unlock()
		a.mAdmitted.Inc()
		a.mWait.Observe(0)
		return a.releaser(cost), nil
	}
	if len(a.waiters) >= a.maxQueue {
		a.mu.Unlock()
		a.shed(ShedQueueFull)
		return nil, ErrOverloaded
	}
	w := &waiter{cost: cost, grant: make(chan struct{}, 1), enq: a.clock.Now()}
	a.waiters = append(a.waiters, w)
	a.mQueueDepth.Set(float64(len(a.waiters)))
	a.mu.Unlock()
	a.mQueued.Inc()

	select {
	case <-w.grant:
		a.mAdmitted.Inc()
		a.mWait.Observe(a.clock.Now().Sub(w.enq).Seconds())
		a.mu.Lock()
		a.admittedN++
		a.mu.Unlock()
		return a.releaser(cost), nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// The grant raced the deadline: the slot is ours, but the
			// caller is out of time. Refund it so the next waiter runs.
			a.inflight -= w.cost
			a.grantLocked()
			a.mInflight.Set(float64(a.inflight))
		} else {
			a.removeLocked(w)
		}
		a.mQueueDepth.Set(float64(len(a.waiters)))
		a.mu.Unlock()
		a.shed(ShedDeadline)
		return nil, ErrOverloaded
	}
}

// TryAcquire admits cost units only if capacity is free right now —
// never queueing, never blocking. The worker accept path uses it: a
// saturated worker must answer 429 immediately, not sit on the request.
// ctx is consulted only for its failpoint set.
func (a *Admission) TryAcquire(ctx context.Context, cost int64) (release func(), ok bool) {
	if a == nil {
		return func() {}, true
	}
	if _, fired := fpAdmitShed.Eval(ctx); fired {
		a.shed(ShedInjected)
		return nil, false
	}
	if cost < 1 {
		cost = 1
	}
	if cost > a.capacity {
		cost = a.capacity
	}
	a.mu.Lock()
	if len(a.waiters) > 0 || a.inflight+cost > a.capacity {
		a.mu.Unlock()
		a.shed(ShedQueueFull)
		return nil, false
	}
	a.inflight += cost
	a.admittedN++
	a.mInflight.Set(float64(a.inflight))
	a.mu.Unlock()
	a.mAdmitted.Inc()
	return a.releaser(cost), true
}

// releaser returns the once-only release closure for an admitted cost.
func (a *Admission) releaser(cost int64) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.inflight -= cost
			a.grantLocked()
			a.mInflight.Set(float64(a.inflight))
			a.mQueueDepth.Set(float64(len(a.waiters)))
			a.mu.Unlock()
		})
	}
}

// grantLocked hands freed capacity to queued waiters in FIFO order.
// Strict FIFO is deliberate: a large head-of-line waiter blocks smaller
// ones behind it, trading some utilization for starvation-freedom.
func (a *Admission) grantLocked() {
	for len(a.waiters) > 0 {
		w := a.waiters[0]
		if a.inflight+w.cost > a.capacity {
			return
		}
		a.inflight += w.cost
		w.granted = true
		a.waiters = a.waiters[1:]
		w.grant <- struct{}{}
	}
}

func (a *Admission) removeLocked(w *waiter) {
	for i, q := range a.waiters {
		if q == w {
			a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
			return
		}
	}
}

func (a *Admission) shed(reason string) {
	a.mu.Lock()
	a.shedN++
	a.mu.Unlock()
	if a.mShed != nil {
		a.mShed[reason].Inc()
	}
}

// Inflight returns the summed cost currently admitted (0 on nil).
func (a *Admission) Inflight() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}

// QueueLen returns the number of waiting callers (0 on nil).
func (a *Admission) QueueLen() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiters)
}

// Admitted returns how many acquisitions succeeded (0 on nil).
func (a *Admission) Admitted() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admittedN
}

// Shed returns how many acquisitions were refused (0 on nil).
func (a *Admission) Shed() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.shedN
}
