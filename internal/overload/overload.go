// Package overload is the load-resilience layer of the campaign
// pipeline: the machinery that keeps the system answering *something*
// when offered more work than it can carry, instead of queueing
// unboundedly, retry-storming a sick fleet, or falling over mid-burst.
//
// It provides three primitives, each independently wired into the tiers
// above it (internal/run, internal/dist, the stlworker daemon):
//
//   - Admission: a weighted semaphore over caller-defined costs (a
//     campaign charges its library's summed program length in
//     instructions, a worker its request bytes or one slot) with a
//     bounded FIFO wait queue. Work that cannot be admitted before its
//     deadline — or that arrives with the queue already full — is shed
//     explicitly with ErrOverloaded, fast, before any artifact is
//     written. Shedding early and loudly is the load-shedding
//     contract: a client that gets ErrOverloaded in milliseconds can
//     retry elsewhere or later; one that queues for minutes and then
//     times out has burned its deadline for nothing.
//   - RetryBudget: a token-bucket bound on retries as a fraction of
//     requests (the classic ~10% budget). Individual request retries
//     are fine; a fleet-wide retry storm against an already-sick
//     backend is how overload turns into outage. When the budget is
//     spent, retries are denied and the caller fails fast instead.
//   - Clock: the injected time source that makes admission
//     queue-wait accounting deterministic under test — it advances on a
//     FakeClock exactly as the test dictates.
//
// The per-worker circuit breaker lives with the rest of worker health
// in internal/dist (health.go).
//
// Everything is nil-safe in the style of internal/obs: a nil *Admission
// admits instantly and a nil *RetryBudget always allows. Callers wire
// the layer unconditionally; "no limits configured" costs a predicted
// branch (guarded by the BenchmarkFaultSimulationOverload pair in the
// repo root).
package overload

import (
	"time"
)

// ErrOverloaded marks work that was shed by admission control rather
// than attempted: the queue was full, or the wait would have blown the
// caller's deadline. It is a fast, explicit refusal — nothing was
// simulated, nothing was written — so callers may retry later without
// fear of a partial artifact. The resilience layer (internal/run)
// treats it as retryable, never as poison.
//
// The sentinel implements Transient() bool so layers that must not
// import this package (internal/journal sits below it) can classify it
// structurally: errors.As(err, &interface{ Transient() bool }).
var ErrOverloaded error = shedError{}

type shedError struct{}

func (shedError) Error() string { return "overload: shed" }

// Transient marks the shed as environmental and retry-worthy: nothing
// was corrupted, the same work succeeds once load eases.
func (shedError) Transient() bool { return true }

// Clock abstracts the time source so shed decisions are deterministic
// under test. Production code uses SystemClock; tests drive a
// FakeClock.
type Clock interface {
	Now() time.Time
	// After behaves like time.After. Admission uses it only for
	// deadline bookkeeping, never for polling.
	After(d time.Duration) <-chan time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time                         { return time.Now() }
func (systemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// SystemClock returns the real-time Clock.
func SystemClock() Clock { return systemClock{} }
