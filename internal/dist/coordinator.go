package dist

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/obs"
	"gpustl/internal/overload"
)

// Options tunes the coordinator's robustness machinery. The zero value
// selects sensible defaults (noted per field).
type Options struct {
	// MaxAttempts is how many failed simulation attempts a shard may
	// accumulate before it is declared permanently failed and the
	// campaign degrades to FC bounds (default 4). Coordinator-initiated
	// cancellations — hedge losers, dead-worker redistributions — do not
	// count against it.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry (default 25ms);
	// it doubles per failure, capped at MaxBackoff (default 2s), with
	// ±50% deterministic jitter from Seed. BaseBackoff is also how long
	// a worker that bounced a shard (429/503) without a Retry-After hint
	// is routed around; MaxBackoff is also the cool-down of a worker
	// tripped open by 5 consecutive genuine failures (plus up to 50%
	// jitter seeded from Seed and the worker name), after which a single
	// probe dispatch decides its recovery. See health.go.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Per-shard deadline = ShardBaseTimeout + n_patterns ×
	// ShardPatternTimeout (defaults 10s + 2ms/pattern): a dispatch that
	// exceeds it is canceled and counts as a failed attempt.
	ShardBaseTimeout    time.Duration
	ShardPatternTimeout time.Duration
	// HedgeFraction × deadline is how long a lone dispatch may run
	// before a hedged duplicate is sent to a different worker; first
	// reply wins, the loser is canceled. Default 0.25; negative
	// disables hedging.
	HedgeFraction float64
	// Heartbeats: every HeartbeatInterval (default 250ms) each worker is
	// pinged; HeartbeatMisses consecutive failures (default 3) declare
	// it dead, canceling and redistributing its in-flight shards. A dead
	// worker that answers again is revived.
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	// Shards is the target shard count (default 2 × workers): more
	// shards than workers keeps everyone busy and bounds the work lost
	// to any single failure.
	Shards int
	// VerifyFraction selects what fraction of shards is re-executed on a
	// second worker and settled by checksum vote (Byzantine tolerance):
	// 0 trusts every reply (default), 1 verifies everything. Selection
	// is a deterministic hash of (Seed, shard), so the same run verifies
	// the same shards. Verified shards cost one extra execution; a
	// checksum mismatch escalates to a third worker and majority vote.
	// One outvoted reply quarantines its worker: banned for the rest of
	// this run AND every later Run on the same Coordinator, its
	// in-flight shards redistributed, and every shard it settled
	// *unverified* requeued — a single proven lie is disqualifying,
	// mirroring the poison-PTP quarantine.
	VerifyFraction float64
	// RetryBudget bounds genuine-failure retries to this fraction of
	// dispatches, with RetryBurst tokens banked for cold-start bursts
	// (token bucket; defaults 0.1 and 64). The bucket is shared across
	// every Run on the coordinator, so a sick fleet cannot be melted by
	// a sustained retry storm no matter how many campaigns are offered:
	// once the budget is spent, a shard that would retry fails fast and
	// the campaign degrades to FC bounds instead. A negative RetryBudget
	// disables budgeting (unbounded retries up to MaxAttempts, the
	// pre-overload behavior). Coordinator-initiated redispatches —
	// hedges, drain/busy bounces, dead-worker redistributions — never
	// consume budget; only failure-driven retries do.
	RetryBudget float64
	RetryBurst  int
	// Seed drives backoff jitter (results never depend on it).
	Seed int64
	// Logf receives coordinator progress lines (nil = silent).
	Logf func(format string, args ...any)
	// Metrics receives the coordinator's telemetry: per-worker liveness
	// gauges, shard latency histograms, and counters mirroring Stats.
	// nil disables metric recording.
	Metrics *obs.Registry
	// Tracer, when set, records one client-side shard span per dispatch
	// (parented on whatever span the caller's context carries — the
	// runner's PTP span) and propagates its context to HTTP workers via
	// the X-Gpustl-Trace header, so remote shard executions land in the
	// submitting campaign's trace.
	Tracer *obs.Tracer
}

func (o Options) withDefaults(numWorkers int) Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 25 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.ShardBaseTimeout <= 0 {
		o.ShardBaseTimeout = 10 * time.Second
	}
	if o.ShardPatternTimeout <= 0 {
		o.ShardPatternTimeout = 2 * time.Millisecond
	}
	if o.HedgeFraction == 0 {
		o.HedgeFraction = 0.25
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 250 * time.Millisecond
	}
	if o.HeartbeatMisses <= 0 {
		o.HeartbeatMisses = 3
	}
	if o.Shards <= 0 {
		o.Shards = 2 * numWorkers
	}
	if o.VerifyFraction < 0 {
		o.VerifyFraction = 0
	}
	if o.VerifyFraction > 1 {
		o.VerifyFraction = 1
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 0.1
	}
	if o.RetryBurst <= 0 {
		o.RetryBurst = 64
	}
	return o
}

// Stats counts what the robustness machinery actually did during a run.
// Coordinator-initiated cancellations are attributed separately from
// genuine failures: a hedge loser or a dead-worker preemption must never
// read as a worker error, or retry accounting (and any alerting built on
// it) is inflated by the coordinator's own scheduling decisions.
type Stats struct {
	Shards, Dispatches int
	Retries, Hedges    int
	Redispatches       int // dead-worker shard redistributions
	DuplicateReplies   int // successful replies for shards already settled
	InvalidReplies     int // replies rejected by validation (corruption)
	WorkerDeaths       int
	WorkerRevivals     int
	HedgeWins          int // hedged duplicate settled the shard first
	HedgeLosses        int // attempts canceled because the sibling won
	Preempted          int // attempts canceled by a dead-worker declaration

	// Byzantine verification accounting.
	VerifiedShards     int // shards settled by a checksum majority
	VerifyDispatches   int // extra executions dispatched for verification
	VerifyMismatches   int // checksum votes where replies disagreed
	VerifySkipped      int // verify shards settled unverified (no second worker)
	ByzantineReplies   int // valid-looking replies outvoted by the majority
	QuarantinedWorkers int // workers banned for Byzantine replies this run
	RequeuedShards     int // settled shards re-run after their worker was quarantined
	UnavailableReplies int // dispatches bounced by a draining worker (redistributed)

	// Overload accounting.
	BusyReplies  int // dispatches bounced by a saturated worker (429; rerouted, no charge)
	RetryDenied  int // retries refused by the retry budget (shard failed fast)
	BreakerOpens int // circuit-breaker trips during this run
}

// Result is the outcome of one distributed campaign run.
type Result struct {
	// Report is the merged Fault Sim Report, bit-identical to a serial
	// Campaign.Simulate when every shard succeeded. With failed shards
	// it covers the successful shards only.
	Report          *fault.Report
	DetectedThisRun int
	Shards          int
	// Degraded mode: faults of permanently failed shards have UNKNOWN
	// status — the campaign completes, reporting cumulative
	// fault-coverage bounds instead of aborting. FCLower counts them
	// undetected, FCUpper counts them all detected; the true coverage
	// lies in between. FCLower == FCUpper iff nothing failed.
	FailedShards int
	FailedFaults int
	FCLower      float64
	FCUpper      float64
	ShardErrors  []string
	Stats        Stats
	// SimStats aggregates the engine counters of every accepted shard
	// reply: dedup dictionary hit rate, activation pre-screen and
	// unchanged-cone skips. Failed shards contribute nothing.
	SimStats fault.SimStats
}

// Degraded reports whether any shard permanently failed, making the
// FC bounds an interval rather than a point.
func (r *Result) Degraded() bool { return r.FailedShards > 0 }

// Coordinator shards fault campaigns across a fixed set of workers.
// It is safe for sequential reuse across many Run calls (one per PTP
// and FC evaluation); each run spins up its own heartbeats and state.
// Worker health (health.go) is the exception: a down worker stays down
// until it answers a ping, an open one stays open, and a worker
// quarantined in one run stays banned for every later run on the same
// coordinator — a proven liar does not get a second chance just
// because the next PTP started.
type Coordinator struct {
	opt        Options
	autoShards bool // Shards was defaulted, not requested: sizing may shrink it
	transports []Transport
	budget     *overload.RetryBudget

	// health[i] is transports[i]'s health. Only the running Run's loop
	// writes it (under mu, so Banned may read it from any goroutine) and
	// reads it without the lock.
	mu     sync.Mutex
	health []workerHealth
}

// New creates a coordinator over the given worker transports.
func New(opt Options, transports ...Transport) (*Coordinator, error) {
	if len(transports) == 0 {
		return nil, errors.New("dist: coordinator needs at least one worker transport")
	}
	autoShards := opt.Shards <= 0
	opt = opt.withDefaults(len(transports))
	c := &Coordinator{
		opt:        opt,
		autoShards: autoShards,
		transports: transports,
		budget:     overload.NewRetryBudget(opt.RetryBudget, opt.RetryBurst, opt.Metrics),
	}
	for _, t := range transports {
		c.health = append(c.health, newWorkerHealth(opt, t.Name()))
	}
	return c, nil
}

// Banned returns the names of workers quarantined for Byzantine
// replies, sorted.
func (c *Coordinator) Banned() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var names []string
	for i, h := range c.health {
		if h.state == healthBanned {
			names = append(names, c.transports[i].Name())
		}
	}
	sort.Strings(names)
	return names
}

// step applies e to h under mu: the one path by which worker health
// changes.
func (c *Coordinator) step(h *workerHealth, e healthEvent, now time.Time) {
	c.mu.Lock()
	h.step(e, now)
	c.mu.Unlock()
}

// Close closes every transport.
func (c *Coordinator) Close() error {
	var first error
	for _, t := range c.transports {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// errLostRace and errWorkerDown are cancellation causes the coordinator
// attaches to dispatch contexts, so the result handler can tell a
// genuine failure (counts toward MaxAttempts) from its own preemptions
// (immediate redistribution, no penalty).
var (
	errLostRace    = errors.New("dist: hedged race lost")
	errWorkerDown  = errors.New("dist: worker declared dead")
	errQuarantined = errors.New("dist: worker quarantined for byzantine replies")
)

// Run distributes the campaign's remaining faults across the workers
// and merges the result, committing detections of successful shards to
// the campaign. It returns an error only for a canceled context or an
// unusable campaign; permanently failed shards degrade the Result to
// explicit FC bounds instead.
func (c *Coordinator) Run(ctx context.Context, camp *fault.Campaign, stream []fault.TimedPattern, opt fault.SimOptions) (*Result, error) {
	if err := camp.Err(); err != nil {
		return nil, fmt.Errorf("dist: campaign unusable: %w", err)
	}
	if err := ctx.Err(); err != nil {
		// Surface the cause (campaign deadline, stage watchdog) rather
		// than the bare Canceled sentinel.
		return nil, context.Cause(ctx)
	}
	if len(c.Banned()) == len(c.transports) {
		return nil, fmt.Errorf("dist: every worker is quarantined for byzantine replies (%s)",
			strings.Join(c.Banned(), ", "))
	}
	ordered := stream
	if opt.Reverse {
		ordered = make([]fault.TimedPattern, len(stream))
		for i, p := range stream {
			ordered[len(stream)-1-i] = p
		}
	}

	// Wide blocks amortize each 64×W-pattern sweep over a shard's whole
	// fault list, so shards below a few hundred faults waste most of the
	// width. Cap the shard count to keep at least 256×W faults per shard
	// at the width the stream auto-selects.
	shards := c.opt.Shards
	if minFaults := 256 * fault.AutoBlockWords(len(ordered)); c.autoShards && minFaults > 0 {
		if rem := camp.Total() - camp.Detected(); rem/minFaults < shards {
			shards = rem / minFaults
			if shards < 1 {
				shards = 1
			}
		}
	}
	parts := camp.PartitionRemaining(shards)
	if len(parts) == 0 {
		cov := camp.Coverage()
		return &Result{Report: fault.BuildReport(ordered, nil), FCLower: cov, FCUpper: cov}, nil
	}

	rl := newRunLoop(c, ctx, camp, ordered, parts)
	defer rl.shutdown()
	if err := rl.run(); err != nil {
		return nil, err
	}
	return rl.finish(camp, ordered)
}

// SimulateCampaign adapts the coordinator to the compactor's
// FaultSimulator contract (core.Options.Simulator). Compaction decisions
// must not act on partial detection data — an unessential label derived
// from a missing shard would remove instructions that do detect faults —
// so a degraded run comes back as an error here; the resilient runner
// then reverts that one PTP while the rest of the STL continues.
func (c *Coordinator) SimulateCampaign(ctx context.Context, camp *fault.Campaign, stream []fault.TimedPattern, opt fault.SimOptions) (*fault.Report, error) {
	res, err := c.Run(ctx, camp, stream, opt)
	if err != nil {
		return nil, err
	}
	if res.Degraded() {
		return nil, fmt.Errorf("dist: degraded campaign: %d of %d shards failed permanently, %d faults unknown (FC bounds %.2f%%..%.2f%%): %s",
			res.FailedShards, res.Shards, res.FailedFaults, res.FCLower, res.FCUpper,
			strings.Join(res.ShardErrors, "; "))
	}
	return res.Report, nil
}

// ---------------------------------------------------------------------------
// The run loop: one goroutine owns all scheduling state; dispatches,
// timers and heartbeats communicate with it exclusively through events.

type eventKind int

const (
	evResult eventKind = iota
	evRetry
	evHedge
	evHealth
	evStrand
)

type event struct {
	kind    eventKind
	d       *dispatch // evResult
	res     *ShardResult
	err     error
	s       *shardState // evRetry / evHedge
	attempt int         // evHedge: attempt the timer was armed for
	w       *worker     // evHealth
	he      healthEvent // evHealth: a heartbeat edge or the worker's timer
}

type worker struct {
	t        Transport
	h        *workerHealth // the coordinator's, kept across Runs
	inflight int
	timer    *time.Timer        // the one timer armed for h's open/draining hold
	stopPing context.CancelFunc // ends the heartbeat once the worker is banned
}

type dispatch struct {
	shard   int
	attempt int
	w       *worker
	probe   uint64 // the worker's probe token when this dispatch is its probe
	req     *ShardRequest
	ctx     context.Context
	cancel  context.CancelCauseFunc
	hedged  bool // dispatched as a duplicate while a sibling was in flight
	started time.Time
	span    *obs.Span // client-side shard span (nil when untraced)
}

// shardState walks pending → dispatched (1–2 in-flight attempts) →
// done | failed. Attempt numbers (seq) are unique per dispatch so reply
// echoes distinguish every try; failures counts only genuine failures.
type shardState struct {
	id     int
	ids    []fault.ID
	faults []fault.Fault

	seq      int
	failures int
	inflight map[int]*dispatch
	tried    map[string]bool
	parked   bool // waiting in runLoop.pending for a worker to turn eligible

	done   bool
	failed bool
	dets   []Detection
	stats  fault.SimStats
	errs   []string

	// Byzantine verification state. verify marks the shard as selected
	// for re-execution on a second worker; replies accumulates the valid
	// replies cast as checksum votes, replied the workers that cast
	// them (never asked twice); by is the worker whose reply settled the
	// shard, verified whether a checksum majority backed it.
	verify   bool
	verified bool
	by       string
	replies  []vote
	replied  map[string]bool
}

// vote is one valid reply held for a checksum vote on a verify shard.
type vote struct {
	w   *worker
	d   *dispatch
	res *ShardResult
	sum string
}

type runLoop struct {
	co      *Coordinator
	opt     Options
	ctx     context.Context // parent (caller cancellation)
	loopCtx context.Context
	cancel  context.CancelFunc
	rng     *rand.Rand

	events chan event
	wg     sync.WaitGroup
	timers []*time.Timer

	workers     []*worker
	shards      []*shardState
	ordered     []fault.TimedPattern
	modKind     circuits.ModuleKind
	modLanes    int
	deadline    time.Duration
	pending     []*shardState
	remaining   int
	strandArmed bool
	stats       Stats
	opensStart  uint64 // workers' open trips before this run, for Stats delta
}

func newRunLoop(c *Coordinator, ctx context.Context, camp *fault.Campaign, ordered []fault.TimedPattern, parts [][]fault.ID) *runLoop {
	loopCtx, cancel := context.WithCancel(ctx)
	rl := &runLoop{
		co:      c,
		opt:     c.opt,
		ctx:     ctx,
		loopCtx: loopCtx,
		cancel:  cancel,
		rng:     rand.New(rand.NewSource(c.opt.Seed)),
		events:  make(chan event, 16),
		ordered: ordered,
		deadline: c.opt.ShardBaseTimeout +
			time.Duration(len(ordered))*c.opt.ShardPatternTimeout,
	}
	now := time.Now()
	for i, t := range c.transports {
		w := &worker{t: t, h: &c.health[i]}
		// A probe slot the last run left claimed is free again, and a hold
		// that ended between runs ends now rather than on a timer tick.
		c.step(w.h, healthEvent{kind: hNewRun}, now)
		c.step(w.h, healthEvent{kind: hTimer}, now)
		rl.opensStart += w.h.opens
		rl.workers = append(rl.workers, w)
		rl.workerUpGauge(w)
	}
	all := camp.Faults()
	for i, ids := range parts {
		fs := make([]fault.Fault, len(ids))
		for j, id := range ids {
			fs[j] = all[id]
		}
		rl.shards = append(rl.shards, &shardState{
			id: i, ids: ids, faults: fs,
			inflight: map[int]*dispatch{},
			tried:    map[string]bool{},
			verify:   rl.verifySelected(i),
			replied:  map[string]bool{},
		})
	}
	rl.remaining = len(rl.shards)
	rl.stats.Shards = len(rl.shards)
	rl.modKind, rl.modLanes = camp.Module.Kind, camp.Module.Lanes
	return rl
}

// verifySelected decides whether shard id is re-executed for
// verification: a deterministic hash of (Seed, shard) against
// VerifyFraction, so the same seed verifies the same shards regardless
// of scheduling order.
func (rl *runLoop) verifySelected(id int) bool {
	f := rl.opt.VerifyFraction
	if f <= 0 || len(rl.workers) < 2 {
		return false
	}
	if f >= 1 {
		return true
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d:%d", rl.opt.Seed, id)
	// FNV of a short string leaves the high bits poorly mixed (adjacent
	// shard ids would all select identically); run the sum through a
	// 64-bit avalanche finalizer before thresholding.
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x)/float64(math.MaxUint64) < f
}

// run drives the event loop to completion (every shard done or failed)
// or parent-context cancellation.
func (rl *runLoop) run() error {
	for _, w := range rl.workers {
		if w.h.state == healthBanned {
			continue // banned in an earlier run: never pinged again
		}
		pingCtx, stop := context.WithCancel(rl.loopCtx)
		w.stopPing = stop
		rl.wg.Add(1)
		go rl.heartbeat(pingCtx, w, w.h.state == healthDown)
		rl.armTimer(w) // an open or draining hold carried over from an earlier run
	}
	for _, s := range rl.shards {
		rl.place(s)
	}
	rl.checkStranded()
	for rl.remaining > 0 {
		select {
		case <-rl.ctx.Done():
			return fmt.Errorf("dist: campaign canceled with %d of %d shards unfinished: %w",
				rl.remaining, len(rl.shards), context.Cause(rl.ctx))
		case ev := <-rl.events:
			rl.handle(ev)
			rl.checkStranded()
		}
	}
	return nil
}

// shutdown cancels everything still moving and waits for all goroutines,
// so a finished Run leaks nothing into the next one. Senders never block
// once loopCtx is done, so the events channel is left open: a timer
// callback already running when its Stop comes may still send into it.
func (rl *runLoop) shutdown() {
	rl.cancel()
	for _, t := range rl.timers {
		t.Stop()
	}
	rl.wg.Wait()
}

func (rl *runLoop) send(ev event) {
	select {
	case rl.events <- ev:
	case <-rl.loopCtx.Done():
	}
}

func (rl *runLoop) afterFunc(d time.Duration, ev event) *time.Timer {
	t := time.AfterFunc(d, func() { rl.send(ev) })
	rl.timers = append(rl.timers, t)
	return t
}

func (rl *runLoop) handle(ev event) {
	switch ev.kind {
	case evResult:
		rl.onResult(ev.d, ev.res, ev.err)
	case evRetry:
		if !ev.s.done && !ev.s.failed && len(ev.s.inflight) == 0 {
			rl.place(ev.s)
		}
	case evHedge:
		rl.onHedge(ev.s, ev.attempt)
	case evHealth:
		rl.observe(ev.w, ev.he)
	case evStrand:
		rl.strandArmed = false
		rl.failStranded()
	}
}

// heartbeat pings w every HeartbeatInterval and reports the edges:
// hPingLost after HeartbeatMisses consecutive failures, hPingOK when a
// lost worker — down since this run or an earlier one — answers again.
func (rl *runLoop) heartbeat(ctx context.Context, w *worker, down bool) {
	defer rl.wg.Done()
	tick := time.NewTicker(rl.opt.HeartbeatInterval)
	defer tick.Stop()
	misses := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		// A ping may take up to the full miss budget: a slow-but-alive
		// worker (its CPU busy simulating) must not read as dead.
		pctx, pcancel := context.WithTimeout(ctx,
			time.Duration(rl.opt.HeartbeatMisses)*rl.opt.HeartbeatInterval)
		err := w.t.Ping(pctx)
		pcancel()
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			misses++
			if misses >= rl.opt.HeartbeatMisses && !down {
				down = true
				rl.send(event{kind: evHealth, w: w, he: healthEvent{kind: hPingLost}})
			}
			continue
		}
		misses = 0
		if down {
			down = false
			rl.send(event{kind: evHealth, w: w, he: healthEvent{kind: hPingOK}})
		}
	}
}

// observe feeds one event to w's health and carries out what the
// transition means for this run: preempting a down or banned worker's
// attempts, requeueing what a banned worker settled unverified, keeping
// the worker's one timer armed for its hold, and re-placing the parked
// shards whenever a worker turns eligible or leaves the candidate pool.
func (rl *runLoop) observe(w *worker, e healthEvent) {
	h := w.h
	was, wasEligible, until, opens := h.state, h.eligible(), h.until, h.opens
	rl.co.step(h, e, time.Now())
	if h.state != was || !h.until.Equal(until) {
		rl.armTimer(w)
	}
	if h.opens > opens {
		rl.co.logf("dist: worker %s: %s -> open, probing again in %v",
			w.t.Name(), was, time.Until(h.until).Round(time.Millisecond))
	}
	if h.state != was {
		switch {
		case h.state == healthDown:
			rl.stats.WorkerDeaths++
			rl.co.logf("dist: worker %s: heartbeat lost, redistributing its in-flight shards", w.t.Name())
			rl.preempt(w, errWorkerDown)
		case h.state == healthBanned:
			rl.quarantine(w)
		case was == healthDown:
			rl.stats.WorkerRevivals++
			rl.co.logf("dist: worker %s: heartbeat recovered", w.t.Name())
		}
		rl.workerUpGauge(w)
	}
	if (!wasEligible && h.eligible()) || (h.state != was && !h.live()) {
		rl.unpark()
	}
}

// armTimer keeps exactly one timer per worker: armed for the end of an
// open or draining hold, none otherwise.
func (rl *runLoop) armTimer(w *worker) {
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	if s := w.h.state; s == healthOpen || s == healthDraining {
		w.timer = rl.afterFunc(time.Until(w.h.until),
			event{kind: evHealth, w: w, he: healthEvent{kind: hTimer}})
	}
}

// unpark re-places every parked shard: the one place parked work
// wakes up.
func (rl *runLoop) unpark() {
	parked := rl.pending
	rl.pending = nil
	for _, s := range parked {
		s.parked = false
		if !s.done && !s.failed && len(s.inflight) == 0 {
			rl.place(s)
		}
	}
}

// pickWorker chooses an eligible worker for a shard: one the shard has
// not tried yet when possible ("retry on a different worker"), least
// loaded as the tie-break, never one that already has this shard in
// flight — and for verify shards, never one whose reply is already a
// cast vote (independent re-execution is the whole point).
func (rl *runLoop) pickWorker(s *shardState) *worker {
	busy := map[string]bool{}
	for _, d := range s.inflight {
		busy[d.w.t.Name()] = true
	}
	var best *worker
	bestFresh := false
	for _, w := range rl.workers {
		if !w.h.eligible() || busy[w.t.Name()] || s.replied[w.t.Name()] {
			continue
		}
		fresh := !s.tried[w.t.Name()]
		switch {
		case best == nil,
			fresh && !bestFresh,
			fresh == bestFresh && w.inflight < best.inflight:
			best, bestFresh = w, fresh
		}
	}
	return best
}

// dispatch sends one attempt of the shard to a worker; false when no
// eligible worker exists.
func (rl *runLoop) dispatch(s *shardState) bool {
	w := rl.pickWorker(s)
	if w == nil {
		return false
	}
	rl.observe(w, healthEvent{kind: hClaim})
	rl.co.budget.OnRequest()
	attempt := s.seq
	s.seq++
	req := &ShardRequest{
		Shard:   s.id,
		Attempt: attempt,
		Module:  rl.modKind,
		Lanes:   rl.modLanes,
		Faults:  s.faults,
		Stream:  rl.ordered,
	}
	dctx, cancelCause := context.WithCancelCause(rl.loopCtx)
	tctx, tcancel := context.WithTimeout(dctx, rl.deadline)
	d := &dispatch{
		shard: s.id, attempt: attempt, w: w, req: req, ctx: tctx, cancel: cancelCause,
		hedged: len(s.inflight) > 0, started: time.Now(),
	}
	if w.h.state == healthProbe {
		d.probe = w.h.probeSeq // this dispatch holds the probe slot
	}
	if sp := rl.opt.Tracer.Start(obs.SpanFromContext(rl.loopCtx), obs.KindShard,
		fmt.Sprintf("shard:%d", s.id)); sp != nil {
		sp.Annotate("side", "client")
		sp.Annotate("worker", w.t.Name())
		sp.Annotate("attempt", fmt.Sprintf("%d", attempt))
		if d.hedged {
			sp.Annotate("hedged", "true")
		}
		if s.verify && len(s.replies) > 0 {
			sp.Annotate("verify", "true")
		}
		d.span = sp
	}
	s.inflight[attempt] = d
	s.tried[w.t.Name()] = true
	w.inflight++
	rl.stats.Dispatches++
	rl.wg.Add(1)
	go func() {
		defer rl.wg.Done()
		defer tcancel()
		res, err := w.t.Simulate(obs.ContextWithSpan(tctx, d.span), req)
		if err != nil {
			d.span.Annotate("error", err.Error())
		}
		d.span.End()
		rl.send(event{kind: evResult, d: d, res: res, err: err})
	}()
	if rl.opt.HedgeFraction > 0 && len(s.inflight) == 1 {
		rl.afterFunc(time.Duration(float64(rl.deadline)*rl.opt.HedgeFraction),
			event{kind: evHedge, s: s, attempt: attempt})
	}
	return true
}

// place dispatches the shard, or parks it until observe sees a worker
// turn eligible. A verify shard holding votes that no live worker is
// left to extend is decided instead: parking it would wait on workers
// that are down or banned. Every path that re-places a shard — reply,
// preemption, retry, unpark — comes through here. It reports whether
// the shard was dispatched.
func (rl *runLoop) place(s *shardState) bool {
	if rl.dispatch(s) {
		return true
	}
	if s.verify && len(s.replies) > 0 && !rl.votersLeft(s) {
		rl.closeVote(s)
		return false
	}
	if !s.parked {
		s.parked = true
		rl.pending = append(rl.pending, s)
	}
	return false
}

// votersLeft reports whether some live worker has not yet voted on s.
func (rl *runLoop) votersLeft(s *shardState) bool {
	for _, w := range rl.workers {
		if w.h.live() && !s.replied[w.t.Name()] {
			return true
		}
	}
	return false
}

// closeVote decides a verify shard that no further vote can reach. A
// lone vote settles unverified — availability beats verification, and
// a later quarantine of its worker requeues the shard; a two-vote tie
// fails.
func (rl *runLoop) closeVote(s *shardState) {
	if len(s.replies) == 1 {
		rl.stats.VerifySkipped++
		rl.co.logf("dist: shard %d: no second worker for verification, settling unverified", s.id)
		rl.settle(s, s.replies[0].d, s.replies[0].res)
		return
	}
	s.errs = append(s.errs, "checksum vote tie with no third worker available")
	rl.fail(s)
}

// checkReply cross-checks a reply against its request, then its own
// checksum, which catches accidental corruption in flight (a lying
// worker sums its lie consistently; the vote exists for that). A
// rejected reply is the dispatch's failure.
func (rl *runLoop) checkReply(d *dispatch, res *ShardResult) error {
	err := res.Validate(d.req)
	if err == nil {
		err = res.VerifyChecksum()
	}
	if err != nil {
		rl.stats.InvalidReplies++
		rl.co.logf("dist: shard %d attempt %d on %s: rejecting reply: %v",
			d.shard, d.attempt, d.w.t.Name(), err)
	}
	return err
}

func (rl *runLoop) onResult(d *dispatch, res *ShardResult, err error) {
	s := rl.shards[d.shard]
	delete(s.inflight, d.attempt)
	d.w.inflight--
	settled := s.done || s.failed
	if err == nil && !settled {
		err = rl.checkReply(d, res)
	}

	// What the outcome says about the worker. Coordinator preemptions
	// (hedge lost, worker down or quarantined) and backpressure bounces
	// carry no failure verdict.
	cause := context.Cause(d.ctx)
	preempted := errors.Is(cause, errLostRace) || errors.Is(cause, errWorkerDown) ||
		errors.Is(cause, errQuarantined)
	he := healthEvent{kind: hFailure, probe: d.probe}
	switch {
	case err == nil:
		he.kind = hSuccess
	case preempted:
		he.kind = hCancel
	case errors.Is(err, ErrBusy), errors.Is(err, ErrUnavailable):
		he.kind = hBounce
		var be *BusyError
		if errors.As(err, &be) {
			he.after = be.After
		}
	}
	rl.observe(d.w, he)

	if settled {
		// A duplicated reply for a settled shard (the hedge loser
		// finishing anyway, or chaos replaying) is counted once, merged
		// never. A canceled loser was attributed at cancellation time —
		// the run may end before it reports back; any other late error
		// no longer decides anything but is worth a log line.
		if err == nil {
			rl.stats.DuplicateReplies++
		} else if he.kind == hFailure {
			rl.co.logf("dist: shard %d attempt %d on %s: late failure after settle: %v",
				s.id, d.attempt, d.w.t.Name(), err)
		}
		return
	}
	if err == nil {
		// The exemplar pins the campaign's trace ID to the latency
		// bucket, so a burning latency SLO links straight to a trace.
		var traceID string
		if d.span != nil {
			traceID = d.span.TraceID().String()
		}
		rl.opt.Metrics.Histogram(
			fmt.Sprintf("gpustl_dist_shard_seconds{worker=%q}", d.w.t.Name()),
			obs.DefLatencyBuckets()).ObserveExemplar(time.Since(d.started).Seconds(), traceID)
		if s.verify {
			rl.onVerifyReply(s, d, res)
		} else {
			rl.settle(s, d, res)
		}
		return
	}
	switch {
	case errors.Is(cause, errLostRace):
		// Normally the shard settled (handled above). Reaching here
		// means the settle was undone — the shard was requeued after its
		// worker's quarantine — and this canceled loser may be the last
		// in-flight attempt, so restart the shard if nothing else is.
		if len(s.inflight) == 0 {
			rl.place(s)
		}
		return
	case preempted:
		if len(s.inflight) > 0 {
			return // the sibling attempt is still racing
		}
		rl.stats.Redispatches++
		rl.place(s)
		return
	case he.kind == hBounce:
		// A draining (503) or saturated (429) worker bounced the shard:
		// redistribution, not failure — no failure charge, no retry
		// budget. observe has already routed around the worker for its
		// Retry-After hint (or one base interval), so a lone worker is
		// retried when that hold ends instead of spinning.
		if errors.Is(err, ErrUnavailable) {
			rl.stats.UnavailableReplies++
			rl.co.logf("dist: shard %d attempt %d: worker %s draining, redistributing",
				s.id, d.attempt, d.w.t.Name())
		} else {
			rl.stats.BusyReplies++
			rl.co.logf("dist: shard %d attempt %d: worker %s saturated, rerouting (worker held off %v)",
				s.id, d.attempt, d.w.t.Name(), d.w.h.hold(he))
		}
		rl.stats.Redispatches++
		if len(s.inflight) == 0 {
			rl.place(s)
		}
		return
	}
	s.failures++
	s.errs = append(s.errs, fmt.Sprintf("attempt %d on %s: %v", d.attempt, d.w.t.Name(), err))
	if len(s.inflight) > 0 {
		return // a hedge is still in flight; it may yet win
	}
	if s.failures >= rl.opt.MaxAttempts {
		rl.fail(s)
		return
	}
	if !rl.co.budget.Allow() {
		// The fleet-wide retry budget is spent: retrying now would feed
		// a retry storm against a sick fleet. Fail the shard fast; the
		// campaign degrades to FC bounds instead of melting the workers.
		rl.stats.RetryDenied++
		s.errs = append(s.errs, "retry denied: coordinator retry budget exhausted")
		rl.co.logf("dist: shard %d: retry budget exhausted after %d failures, failing fast",
			s.id, s.failures)
		rl.fail(s)
		return
	}
	rl.stats.Retries++
	backoff := rl.opt.BaseBackoff << uint(s.failures-1)
	if backoff <= 0 || backoff > rl.opt.MaxBackoff {
		backoff = rl.opt.MaxBackoff
	}
	jittered := time.Duration(float64(backoff) * (0.5 + rl.rng.Float64()))
	rl.afterFunc(jittered, event{kind: evRetry, s: s})
}

// settle marks the shard done with the given accepted reply and cancels
// racing siblings, attributing each as a hedge loss NOW: the run can end
// before a canceled loser reports back, so attribution tied to its
// reply would silently drop the reason.
func (rl *runLoop) settle(s *shardState, d *dispatch, res *ShardResult) {
	s.done = true
	s.dets = res.Detections
	s.stats = res.Stats
	s.by = d.w.t.Name()
	rl.remaining--
	if d.hedged {
		rl.stats.HedgeWins++
	}
	for _, other := range s.inflight {
		other.cancel(errLostRace)
		rl.stats.HedgeLosses++
	}
}

// onVerifyReply folds one valid reply into a verify shard's checksum
// vote. The shard settles when two workers agree; a disagreement
// escalates to a third worker; an outvoted worker is quarantined. When
// no live worker is left to cast the next vote, place settles the
// shard unverified (or fails a tie).
func (rl *runLoop) onVerifyReply(s *shardState, d *dispatch, res *ShardResult) {
	name := d.w.t.Name()
	if s.replied[name] {
		// Same worker answering twice for a verify shard (a hedge pair
		// landed on it before verification started): not an independent
		// vote, ignore the extra reply.
		rl.stats.DuplicateReplies++
		return
	}
	s.replied[name] = true
	s.replies = append(s.replies, vote{w: d.w, d: d, res: res, sum: ChecksumDetections(res.Detections)})

	counts := map[string]int{}
	for _, v := range s.replies {
		counts[v.sum]++
	}
	for sum, n := range counts {
		if n < 2 {
			continue
		}
		// Majority: settle with an agreeing reply, quarantine every
		// dissenter — its reply was valid and plausible but provably
		// wrong, the Byzantine signature.
		for _, v := range s.replies {
			if v.sum == sum {
				s.verified = true
				rl.stats.VerifiedShards++
				rl.settle(s, v.d, v.res)
				break
			}
		}
		for _, v := range s.replies {
			if v.sum != sum {
				rl.stats.ByzantineReplies++
				rl.co.logf("dist: worker %s: byzantine reply on shard %d", v.w.t.Name(), s.id)
				rl.observe(v.w, healthEvent{kind: hOutvoted})
			}
		}
		return
	}
	if len(s.replies) >= 3 {
		// Three workers, three answers: no majority is reachable and
		// nothing distinguishes liar from victim. Fail the shard; the
		// campaign degrades to FC bounds rather than guessing.
		s.errs = append(s.errs, fmt.Sprintf("checksum vote: %d replies, all disagree", len(s.replies)))
		rl.co.logf("dist: shard %d: checksum vote unresolvable (%d distinct answers)", s.id, len(counts))
		rl.fail(s)
		return
	}
	if len(s.replies) == 2 {
		rl.stats.VerifyMismatches++
		rl.co.logf("dist: shard %d: checksum mismatch between %s and %s, asking a third worker",
			s.id, s.replies[0].w.t.Name(), s.replies[1].w.t.Name())
	}
	if len(s.inflight) > 0 {
		return // an attempt on another worker is already racing; its reply will vote
	}
	if rl.place(s) {
		rl.stats.VerifyDispatches++
	}
}

// quarantine carries out a ban (observe saw the worker enter banned):
// out of rotation for this run and every later one on the coordinator,
// never pinged again, its in-flight dispatches canceled, and — the
// critical part — every shard it settled WITHOUT verification
// requeued, because nothing vouches for those results anymore. Shards
// it settled under a checksum majority stand: another worker agreed.
func (rl *runLoop) quarantine(w *worker) {
	name := w.t.Name()
	w.stopPing()
	rl.stats.QuarantinedWorkers++
	rl.opt.Metrics.Gauge(fmt.Sprintf("gpustl_dist_worker_quarantined{worker=%q}", name)).Set(1)
	rl.co.logf("dist: worker %s: QUARANTINED for a byzantine reply", name)
	rl.preempt(w, errQuarantined)
	for _, s := range rl.shards {
		if s.done && !s.verified && s.by == name {
			s.done = false
			s.by = ""
			s.dets, s.stats = nil, fault.SimStats{}
			s.replies = nil
			s.replied = map[string]bool{}
			rl.remaining++
			rl.stats.RequeuedShards++
			rl.co.logf("dist: shard %d: settled by quarantined worker %s, requeueing", s.id, name)
			if len(s.inflight) == 0 {
				rl.place(s)
			}
		}
	}
}

// preempt cancels every in-flight dispatch on w with the given cause.
func (rl *runLoop) preempt(w *worker, cause error) {
	for _, s := range rl.shards {
		for _, d := range s.inflight {
			if d.w == w {
				d.cancel(cause)
				rl.stats.Preempted++
			}
		}
	}
}

func (rl *runLoop) onHedge(s *shardState, attempt int) {
	if s.done || s.failed {
		return
	}
	if _, live := s.inflight[attempt]; !live || len(s.inflight) != 1 {
		return
	}
	if rl.dispatch(s) {
		rl.stats.Hedges++
		rl.co.logf("dist: shard %d: hedging straggler attempt %d", s.id, attempt)
	}
}

func (rl *runLoop) workerUpGauge(w *worker) {
	up := 0.0
	if w.h.live() {
		up = 1
	}
	rl.opt.Metrics.Gauge(fmt.Sprintf("gpustl_dist_worker_up{worker=%q}", w.t.Name())).Set(up)
}

func (rl *runLoop) fail(s *shardState) {
	s.failed = true
	rl.remaining--
	rl.co.logf("dist: shard %d (%d faults): permanently failed after %d attempts",
		s.id, len(s.ids), s.failures)
}

// stranded reports whether every worker is down or banned and nothing
// is in flight: no capacity left that could ever answer.
func (rl *runLoop) stranded() bool {
	for _, w := range rl.workers {
		if w.h.live() || w.inflight > 0 {
			return false
		}
	}
	return true
}

// checkStranded arms a grace timer when the run is stranded; if the
// heartbeats revive a worker before it fires (a transient blip — the
// network hiccuped, not the fleet dying), the run continues, otherwise
// failStranded degrades it. Degrading after the grace beats hanging
// forever.
func (rl *runLoop) checkStranded() {
	if rl.strandArmed || rl.remaining == 0 || !rl.stranded() {
		return
	}
	rl.strandArmed = true
	grace := 2 * time.Duration(rl.opt.HeartbeatMisses) * rl.opt.HeartbeatInterval
	rl.afterFunc(grace, event{kind: evStrand})
}

// failStranded (the armed grace timer firing) fails every unsettled
// shard if the run is still stranded.
func (rl *runLoop) failStranded() {
	if !rl.stranded() {
		return
	}
	for _, s := range rl.shards {
		if !s.done && !s.failed {
			s.errs = append(s.errs, "no alive workers")
			rl.fail(s)
		}
	}
}

// finish merges accepted shard replies into the campaign and the final
// Result with its FC bounds.
func (rl *runLoop) finish(camp *fault.Campaign, ordered []fault.TimedPattern) (*Result, error) {
	var (
		dets         []fault.Detection
		detIDs       []fault.ID
		failedShards int
		failedFaults int
		shardErrs    []string
	)
	var simStats fault.SimStats
	for _, s := range rl.shards {
		if s.done {
			for _, d := range s.dets {
				gid := s.ids[d.Fault]
				dets = append(dets, fault.Detection{Fault: gid, Pattern: d.Pattern, CC: d.CC})
				detIDs = append(detIDs, gid)
			}
			simStats.Add(s.stats)
			continue
		}
		failedShards++
		failedFaults += len(s.ids)
		shardErrs = append(shardErrs, fmt.Sprintf("shard %d (%d faults): %s",
			s.id, len(s.ids), strings.Join(s.errs, "; ")))
	}
	var opens uint64
	for _, w := range rl.workers {
		opens += w.h.opens
	}
	rl.stats.BreakerOpens = int(opens - rl.opensStart)
	if err := camp.RestoreDetected(detIDs); err != nil {
		return nil, err
	}
	detTotal := camp.Detected()
	res := &Result{
		Report:          fault.BuildReport(ordered, dets),
		DetectedThisRun: len(dets),
		Shards:          len(rl.shards),
		FailedShards:    failedShards,
		FailedFaults:    failedFaults,
		ShardErrors:     shardErrs,
		Stats:           rl.stats,
		SimStats:        simStats,
	}
	if total := camp.Total(); total > 0 {
		res.FCLower = 100 * float64(detTotal) / float64(total)
		res.FCUpper = 100 * float64(detTotal+failedFaults) / float64(total)
	}
	rl.recordStats(res)
	// Per-tenant usage attribution: the accepted shard replies' summed
	// block counts are the fleet work this campaign consumed.
	if u, tenant := obs.UsageFromContext(rl.loopCtx); u != nil {
		u.AddFaultBlocks(tenant, res.SimStats.Blocks)
	}
	return res, nil
}

// recordStats mirrors the run's Stats into the metrics registry, so a
// scrape of the coordinator process carries the same numbers Result
// reports programmatically.
func (rl *runLoop) recordStats(res *Result) {
	m := rl.opt.Metrics
	if m == nil {
		return
	}
	st := rl.stats
	for _, c := range []struct {
		name string
		n    int
	}{
		{"gpustl_dist_runs_total", 1},
		{"gpustl_dist_shards_total", st.Shards},
		{"gpustl_dist_dispatches_total", st.Dispatches},
		{"gpustl_dist_retries_total", st.Retries},
		{"gpustl_dist_hedges_total", st.Hedges},
		{"gpustl_dist_hedge_wins_total", st.HedgeWins},
		{"gpustl_dist_hedge_losses_total", st.HedgeLosses},
		{"gpustl_dist_preempted_total", st.Preempted},
		{"gpustl_dist_redispatches_total", st.Redispatches},
		{"gpustl_dist_duplicate_replies_total", st.DuplicateReplies},
		{"gpustl_dist_invalid_replies_total", st.InvalidReplies},
		{"gpustl_dist_worker_deaths_total", st.WorkerDeaths},
		{"gpustl_dist_worker_revivals_total", st.WorkerRevivals},
		{"gpustl_dist_failed_shards_total", res.FailedShards},
		{"gpustl_dist_verified_shards_total", st.VerifiedShards},
		{"gpustl_dist_verify_dispatches_total", st.VerifyDispatches},
		{"gpustl_dist_verify_mismatches_total", st.VerifyMismatches},
		{"gpustl_dist_verify_skipped_total", st.VerifySkipped},
		{"gpustl_dist_byzantine_replies_total", st.ByzantineReplies},
		{"gpustl_dist_quarantined_workers_total", st.QuarantinedWorkers},
		{"gpustl_dist_requeued_shards_total", st.RequeuedShards},
		{"gpustl_dist_unavailable_replies_total", st.UnavailableReplies},
		{"gpustl_dist_busy_replies_total", st.BusyReplies},
		{"gpustl_dist_retry_denied_total", st.RetryDenied},
		{"gpustl_dist_breaker_opens_total", st.BreakerOpens},
	} {
		m.Counter(c.name).Add(uint64(c.n))
	}
	// Breaker-state gauges: 0 closed, 0.5 probing, 1 open — scrapes see
	// at a glance which workers are being routed around for failing.
	for _, w := range rl.workers {
		v := 0.0
		switch w.h.state {
		case healthOpen:
			v = 1
		case healthProbe:
			v = 0.5
		}
		m.Gauge(fmt.Sprintf("gpustl_dist_breaker_state{worker=%q}", w.t.Name())).Set(v)
	}
	if res.Degraded() {
		m.Counter("gpustl_dist_degraded_runs_total").Inc()
	}
	m.Gauge("gpustl_dist_fc_lower_pct").Set(res.FCLower)
	m.Gauge("gpustl_dist_fc_upper_pct").Set(res.FCUpper)

	// Engine counters aggregated from the accepted shard replies: how
	// much work the optimized simulator avoided, fleet-wide.
	ss := res.SimStats
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"gpustl_faultsim_blocks_total", ss.Blocks},
		{"gpustl_faultsim_patterns_total", ss.TotalPatterns},
		{"gpustl_faultsim_unique_patterns_total", ss.UniquePatterns},
		{"gpustl_faultsim_fault_evals_total", ss.FaultEvals},
		{"gpustl_faultsim_cone_skips_total", ss.ConeSkips},
		{"gpustl_faultsim_prescreen_skips_total", ss.PrescreenSkips},
		{"gpustl_faultsim_propagations_total", ss.Propagations},
	} {
		m.Counter(c.name).Add(c.n)
	}
	m.Gauge("gpustl_faultsim_dedup_hit_rate").Set(ss.DedupHitRate())
	m.Gauge("gpustl_faultsim_prescreen_skip_ratio").Set(ss.PrescreenSkipRatio())
	m.Gauge("gpustl_faultsim_block_words").Set(float64(ss.BlockWords))
	m.Gauge("gpustl_faultsim_plan_levels").Set(float64(ss.PlanLevels))
	m.Gauge("gpustl_faultsim_plan_runs").Set(float64(ss.PlanRuns))
}
