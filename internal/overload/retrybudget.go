package overload

import (
	"math"
	"sync"

	"gpustl/internal/obs"
)

// RetryBudget is a token bucket bounding retries to a fraction of
// requests. Every first attempt deposits Ratio tokens (capped at
// Burst); every retry withdraws one whole token, and a retry that
// cannot be paid for is denied. At Ratio 0.1 a steady stream of
// requests earns one retry per ten — the classic 10% retry budget that
// lets individual flakes recover while making a fleet-wide retry storm
// arithmetically impossible.
//
// The bucket starts full (Burst tokens) so a cold coordinator can
// absorb an early failure burst; what it cannot do is *sustain* one.
// A nil *RetryBudget always allows.
type RetryBudget struct {
	mu     sync.Mutex
	ratio  float64
	burst  float64
	tokens float64

	mEarned *obs.Counter
	mSpent  *obs.Counter
	mDenied *obs.Counter
}

// NewRetryBudget creates a budget earning ratio tokens per request with
// at most burst banked. ratio <= 0 or burst <= 0 disables the budget
// (returns nil — always allow), so callers can thread configuration
// straight through. Its counters carry the label budget="<kind>": all
// budgets of one kind (every tenant's, or every coordinator's) add
// into one series, and kinds never mix.
func NewRetryBudget(kind string, ratio float64, burst int, m *obs.Registry) *RetryBudget {
	if ratio <= 0 || burst <= 0 {
		return nil
	}
	b := &RetryBudget{ratio: ratio, burst: float64(burst), tokens: float64(burst)}
	if m != nil {
		lab := `{budget="` + kind + `"}`
		b.mEarned = m.Counter("gpustl_overload_retry_tokens_earned_total" + lab)
		b.mSpent = m.Counter("gpustl_overload_retry_tokens_spent_total" + lab)
		b.mDenied = m.Counter("gpustl_overload_retries_denied_total" + lab)
	}
	return b
}

// OnRequest credits the budget for one first attempt.
func (b *RetryBudget) OnRequest() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
	b.mEarned.Inc()
}

// Allow consumes one token for a retry, reporting whether the retry is
// within budget. A denied retry consumes nothing.
func (b *RetryBudget) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	if b.tokens < 1 {
		b.mu.Unlock()
		b.mDenied.Inc()
		return false
	}
	b.tokens--
	b.mu.Unlock()
	b.mSpent.Inc()
	return true
}

// Tokens returns the current balance (for tests; +Inf on nil).
func (b *RetryBudget) Tokens() float64 {
	if b == nil {
		return math.Inf(1)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
