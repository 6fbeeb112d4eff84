package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"gpustl/internal/core"
	"gpustl/internal/journal"
	"gpustl/internal/obs"
	"gpustl/internal/overload"
	"gpustl/internal/run"
	"gpustl/internal/stl"
)

// Options configures a Server.
type Options struct {
	// StateDir is the server's durable root: queue.wal, LOCK,
	// campaigns/<id>/ run journals, cache/ artifacts.
	StateDir string
	// Holder uniquely names this server instance in leases. The daemon
	// appends its pid; tests pick explicit names.
	Holder string
	// MaxActive bounds concurrently executing campaigns (default 2).
	MaxActive int
	// TenantQuota bounds one tenant's live (non-terminal) campaigns;
	// a submit over quota is refused with 429/Retry-After (default 8).
	TenantQuota int64
	// HeartbeatEvery is the lease renewal period (default 1s);
	// LeaseTTL is how long a lease outlives its last renewal (default
	// 3× heartbeat). A dead server is adopted after at most LeaseTTL.
	HeartbeatEvery time.Duration
	LeaseTTL       time.Duration
	// DrainGrace bounds how long a graceful shutdown waits for
	// in-flight campaigns before checkpoint-canceling them (default 30s).
	DrainGrace time.Duration
	// SimWorkers is the per-campaign fault-simulation parallelism
	// (default 4). StageTimeout, when set, arms run's per-stage
	// watchdog.
	SimWorkers   int
	StageTimeout time.Duration
	// Fleet, when set, is called once per campaign execution to build
	// the fault simulator (typically a dist.Coordinator over shared
	// transports). Nil runs campaigns with the in-process simulator.
	Fleet func() (core.FaultSimulator, error)
	// Metrics receives gpustl_server_* series; Tracer records campaign
	// spans; Logf gets operational notes. All nil-safe.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	Logf    func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	d := *o
	if d.Holder == "" {
		d.Holder = "stlserver"
	}
	if d.MaxActive <= 0 {
		d.MaxActive = 2
	}
	if d.TenantQuota <= 0 {
		d.TenantQuota = 8
	}
	if d.HeartbeatEvery <= 0 {
		d.HeartbeatEvery = time.Second
	}
	if d.LeaseTTL <= 0 {
		d.LeaseTTL = 3 * d.HeartbeatEvery
	}
	if d.DrainGrace <= 0 {
		d.DrainGrace = 30 * time.Second
	}
	if d.SimWorkers <= 0 {
		d.SimWorkers = 4
	}
	return d
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Cancellation causes, surfaced via context.Cause so an aborted
// campaign reports why it stopped instead of a bare context.Canceled.
var (
	errCanceledByClient = errors.New("canceled by client request")
	errDraining         = errors.New("server draining for shutdown")
	errKilled           = errors.New("server killed")
	errLeaseLost        = errors.New("server lease lost")
)

// tenantCtl is one tenant's quota pool and retry budget.
type tenantCtl struct {
	adm *overload.Admission
	rb  *overload.RetryBudget
}

// Server is the crash-only campaign control plane. Construct with New,
// drive with Run, submit work through the HTTP handler (Handler) or
// the Submit/Cancel methods directly.
type Server struct {
	opt   Options
	q     *queue
	cache *cache

	ready    atomic.Bool
	draining atomic.Bool
	// killed marks the hard-stop (crash) path: once set, nothing is
	// appended to the queue journal again — exactly as if the process
	// had died — so the successor's replay sees only what was durable.
	killed atomic.Bool

	// ictx governs every executor. Run derives it from its ctx's values
	// (the failpoint set among them) but not its cancellation: a
	// graceful drain lets executors outlive ctx by up to DrainGrace
	// before icancel fires. Assigned under crashMu, so a crash racing
	// Run's start still cancels it.
	ictx    context.Context
	icancel context.CancelCauseFunc

	crashMu  sync.Mutex
	crashErr error

	tenantMu sync.Mutex
	tenants  map[string]*tenantCtl

	wake chan struct{}
	wg   sync.WaitGroup

	// releases maps campaign id → tenant-quota release func. Runtime
	// only; rebuilt on restart from the replayed non-terminal set.
	relMu    sync.Mutex
	releases map[string]func()

	mSubmitted *obs.Counter
	mDone      *obs.Counter
	mFailed    *obs.Counter
	mCanceled  *obs.Counter
	mRequeued  *obs.Counter
	mAdopted   *obs.Counter
	mRenewals  *obs.Counter
	mLeaseLost *obs.Counter
	mRejected  *obs.Counter
	gQueue     *obs.Gauge
	gRunning   *obs.Gauge
	hCampaign  *obs.Histogram
}

// campaignBuckets is the campaign-latency ladder, 10 ms to 2 h. A whole
// campaign runs from well under a second (a cache hit) to an hour or
// more (a full-scale SP library), far past the ~105 s top of
// obs.DefLatencyBuckets; the round bounds let a latency objective name
// its threshold (le="300" is five minutes).
var campaignBuckets = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
	120, 300, 600, 1200, 1800, 3600, 7200,
}

// New creates a Server over opts.StateDir. Nothing is opened or locked
// until Run.
func New(opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{
		opt:      o,
		tenants:  make(map[string]*tenantCtl),
		wake:     make(chan struct{}, 1),
		releases: make(map[string]func()),
	}
	if m := o.Metrics; m != nil {
		s.mSubmitted = m.Counter("gpustl_server_campaigns_submitted_total")
		s.mDone = m.Counter("gpustl_server_campaigns_done_total")
		s.mFailed = m.Counter("gpustl_server_campaigns_failed_total")
		s.mCanceled = m.Counter("gpustl_server_campaigns_canceled_total")
		s.mRequeued = m.Counter("gpustl_server_campaigns_requeued_total")
		s.mAdopted = m.Counter("gpustl_server_campaigns_adopted_total")
		s.mRenewals = m.Counter("gpustl_server_lease_renewals_total")
		s.mLeaseLost = m.Counter("gpustl_server_lease_lost_total")
		s.mRejected = m.Counter("gpustl_server_submit_rejected_total")
		s.gQueue = m.Gauge("gpustl_server_queue_depth")
		s.gRunning = m.Gauge("gpustl_server_campaigns_running")
		s.hCampaign = m.Histogram("gpustl_server_campaign_seconds", campaignBuckets)
	}
	return s
}

// tenantRetryRatio and tenantRetryBurst parameterize each tenant's
// retry budget, which bounds automatic re-execution of that tenant's
// transiently failed campaigns.
const (
	tenantRetryRatio = 0.2
	tenantRetryBurst = 5
)

func (s *Server) tenant(name string) *tenantCtl {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	t := s.tenants[name]
	if t == nil {
		t = &tenantCtl{
			adm: overload.NewAdmission(overload.AdmissionOptions{
				Capacity: s.opt.TenantQuota,
				Metrics:  s.opt.Metrics,
				Name:     "tenant_" + name,
			}),
			rb: overload.NewRetryBudget("tenant", tenantRetryRatio, tenantRetryBurst, s.opt.Metrics),
		}
		s.tenants[name] = t
	}
	return t
}

// crash is the fail-stop path: a journal append failed, the lease was
// lost, or Kill was called. The server stops writing immediately (a
// transition it cannot journal must not happen), cancels every
// executor with the cause, and lets Run return the error. The LOCK
// stays behind, exactly like a real SIGKILL — the successor waits out
// the lease and adopts by replay.
func (s *Server) crash(err error) {
	if s.killed.Swap(true) {
		return
	}
	s.crashMu.Lock()
	s.crashErr = err
	cancel := s.icancel
	s.crashMu.Unlock()
	s.ready.Store(false)
	s.opt.logf("server %s: fail-stop: %v", s.opt.Holder, err)
	if cancel != nil { // nil until Run starts; Run then cancels at once
		cancel(err)
	}
}

// Kill hard-stops the server as if the process received SIGKILL: no
// drain, no terminal records, no lock release. Chaos schedules and the
// takeover tests use it to die at arbitrary instants.
func (s *Server) Kill() { s.crash(errKilled) }

// Ready reports whether the server is accepting work. Draining reports
// a graceful shutdown in progress. Depth returns (queued, in-flight).
func (s *Server) Ready() bool    { return s.ready.Load() }
func (s *Server) Draining() bool { return s.draining.Load() }
func (s *Server) Depth() (queued, inflight int) {
	if s.q == nil {
		return 0, 0
	}
	return s.q.depth()
}

// Holder returns this server's lease identity.
func (s *Server) Holder() string { return s.opt.Holder }

func (s *Server) updateGauges() {
	queued, inflight := s.Depth()
	s.gQueue.Set(float64(queued))
	s.gRunning.Set(float64(inflight))
}

// updateGaugesLocked is updateGauges for callers already holding q.mu.
func (s *Server) updateGaugesLocked() {
	queued, inflight := s.q.depthLocked()
	s.gQueue.Set(float64(queued))
	s.gRunning.Set(float64(inflight))
}

func (s *Server) queuePath() string { return filepath.Join(s.opt.StateDir, "queue.wal") }
func (s *Server) cacheDir() string  { return filepath.Join(s.opt.StateDir, "cache") }
func (s *Server) runDir(id string) string {
	return filepath.Join(s.opt.StateDir, "campaigns", id)
}

// Run acquires the state-dir lease (blocking, polling each heartbeat,
// until it is free or ctx dies), replays the queue journal, adopts
// orphaned campaigns, and serves until ctx is canceled (graceful
// drain) or a fail-stop crash. It returns nil after a clean drain and
// the crash cause otherwise.
func (s *Server) Run(ctx context.Context) error {
	o := &s.opt
	s.crashMu.Lock()
	s.ictx, s.icancel = context.WithCancelCause(context.WithoutCancel(ctx))
	if s.crashErr != nil {
		s.icancel(s.crashErr)
	}
	s.crashMu.Unlock()
	if err := os.MkdirAll(o.StateDir, 0o777); err != nil {
		return fmt.Errorf("server: state dir: %w", err)
	}
	// Take the state-dir lease. A held lock means a peer is alive (or
	// recently died); poll until its lease expires.
	for {
		err := acquireLock(o.StateDir, o.Holder, time.Now().Add(o.LeaseTTL))
		if err == nil {
			break
		}
		if !errors.Is(err, errLockHeld) {
			return err
		}
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-s.ictx.Done():
			return context.Cause(s.ictx)
		case <-time.After(o.HeartbeatEvery):
		}
	}
	q, rp, err := openQueue(ctx, s.queuePath())
	if err != nil {
		releaseLock(o.StateDir, o.Holder)
		return err
	}
	s.q = q
	if rp.Truncated {
		o.logf("server %s: queue journal salvaged: dropped %d bytes (%s: %s)",
			o.Holder, rp.TotalSize-rp.GoodSize, rp.Kind, rp.Reason)
	}
	c, err := newCache(ctx, s.cacheDir(), o.Metrics, o.Logf)
	if err != nil {
		q.close()
		releaseLock(o.StateDir, o.Holder)
		return err
	}
	s.cache = c
	if err := s.adoptOrphans(); err != nil {
		s.q.close()
		return err
	}
	s.rebuildTenantQuotas()
	s.updateGauges()
	s.ready.Store(true)
	o.logf("server %s: ready (%d campaigns replayed)", o.Holder, len(q.camps))

	hbDone, hbExited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(hbExited)
		s.heartbeat(hbDone)
	}()
	stopHeartbeat := func() { close(hbDone); <-hbExited }

	s.schedule(ctx)

	// Scheduler exited: either a graceful drain (ctx done) or a crash.
	return s.shutdown(ctx, stopHeartbeat)
}

// adoptOrphans requeues every replayed campaign that was leased or
// running when its previous owner stopped. We hold the state-dir lease,
// so that owner is dead (or is our own previous incarnation); its
// campaigns resume from their run WALs once re-executed — no finished
// PTP runs twice.
func (s *Server) adoptOrphans() error {
	s.q.mu.Lock()
	defer s.q.mu.Unlock()
	for _, c := range s.q.camps {
		if c.State != StateLeased && c.State != StateRunning {
			continue
		}
		prev := c.Holder
		if err := s.q.append(recRequeue, queueRec{ID: c.ID, Reason: "adopted from " + prev}); err != nil {
			return err
		}
		s.mAdopted.Inc()
		s.opt.logf("server %s: adopted campaign %s (was %s on %s)", s.opt.Holder, c.ID, StateRunning, prev)
	}
	return nil
}

// rebuildTenantQuotas re-acquires quota slots for every live campaign
// that survived the restart, so a tenant's quota keeps counting work
// the previous incarnation accepted.
func (s *Server) rebuildTenantQuotas() {
	s.q.mu.Lock()
	defer s.q.mu.Unlock()
	for _, c := range s.q.camps {
		if c.State.Terminal() {
			continue
		}
		if rel, ok := s.tenant(c.Tenant).adm.TryAcquire(s.ictx, 1); ok {
			s.setRelease(c.ID, rel)
		} else {
			// Quota was lowered below the replayed backlog. Run the
			// backlog anyway — refusing journaled work would strand it
			// — but log the overshoot.
			s.opt.logf("server %s: tenant %s over quota after replay (campaign %s)", s.opt.Holder, c.Tenant, c.ID)
		}
	}
}

func (s *Server) setRelease(id string, rel func()) {
	s.relMu.Lock()
	s.releases[id] = rel
	s.relMu.Unlock()
}

// releaseQuota frees the tenant-quota slot a campaign held; idempotent.
func (s *Server) releaseQuota(id string) {
	s.relMu.Lock()
	rel := s.releases[id]
	delete(s.releases, id)
	s.relMu.Unlock()
	if rel != nil {
		rel()
	}
}

// heartbeat renews the state-dir lease, the only lease there is: a
// successor that acquires it adopts every leased or running campaign.
// Any renewal failure — the LOCK naming someone else, or the
// server.lease.expire failpoint suppressing the write — is lease loss,
// and lease loss is fail-stop: a server that cannot prove it still owns
// the state dir must stop writing to it before a successor starts.
func (s *Server) heartbeat(done <-chan struct{}) {
	t := time.NewTicker(s.opt.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-s.ictx.Done():
			return
		case <-t.C:
		}
		if s.killed.Load() {
			return
		}
		if err := renewLock(s.ictx, s.opt.StateDir, s.opt.Holder, time.Now().Add(s.opt.LeaseTTL)); err != nil {
			s.mLeaseLost.Inc()
			s.crash(fmt.Errorf("%w: %v", errLeaseLost, err))
			return
		}
		s.mRenewals.Inc()
		s.updateGauges()
	}
}

// schedule is the fair-share dispatch loop: while capacity remains,
// lease the next campaign of the tenant with the fewest in-flight
// campaigns (FIFO inside a tenant), journal the lease, and hand it to
// an executor. Runs until ctx (drain) or ictx (crash) dies.
func (s *Server) schedule(ctx context.Context) {
	t := time.NewTicker(s.opt.HeartbeatEvery)
	defer t.Stop()
	for {
		s.dispatch()
		select {
		case <-ctx.Done():
			return
		case <-s.ictx.Done():
			return
		case <-s.wake:
		case <-t.C:
		}
	}
}

func (s *Server) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// dispatch leases as many queued campaigns as capacity allows.
func (s *Server) dispatch() {
	s.q.mu.Lock()
	defer s.q.mu.Unlock()
	for {
		if s.killed.Load() || s.draining.Load() {
			return
		}
		active := 0
		inflight := map[string]int{} // tenant → leased+running
		for _, c := range s.q.camps {
			if c.State == StateLeased || c.State == StateRunning {
				active++
				inflight[c.Tenant]++
			}
		}
		if active >= s.opt.MaxActive {
			return
		}
		// Fair share: among tenants with queued work, pick the one with
		// the least in flight; inside it, the oldest submission.
		var pick *Campaign
		for _, c := range s.q.camps {
			if c.State != StateQueued {
				continue
			}
			if pick == nil {
				pick = c
				continue
			}
			pi, ci := inflight[pick.Tenant], inflight[c.Tenant]
			if ci < pi || (ci == pi && c.SubmitSeq < pick.SubmitSeq) {
				pick = c
			}
		}
		if pick == nil {
			return
		}
		if err := s.q.append(recLease, queueRec{ID: pick.ID, Holder: s.opt.Holder}); err != nil {
			s.q.mu.Unlock()
			s.crash(err)
			s.q.mu.Lock()
			return
		}
		s.wg.Add(1)
		go s.execute(pick.ID)
	}
}

// shutdown finishes Run: on a crash it only reaps executors and closes
// the journal (no lock release, no extra records — the process is
// "dead"); on a graceful drain it stops intake, gives executors
// DrainGrace to finish, checkpoint-cancels the stragglers (their
// requeue records make the next server resume them), and releases the
// lock so a successor starts instantly. The heartbeat keeps renewing
// leases through the drain; stopHeartbeat returns once it has exited,
// so no renewal rewrites the LOCK after Run returns.
func (s *Server) shutdown(ctx context.Context, stopHeartbeat func()) error {
	if s.killed.Load() {
		s.wg.Wait()
		stopHeartbeat()
		s.q.close()
		s.crashMu.Lock()
		defer s.crashMu.Unlock()
		return s.crashErr
	}
	// Graceful drain (ctx canceled).
	s.draining.Store(true)
	s.ready.Store(false)
	s.opt.logf("server %s: draining (grace %s)", s.opt.Holder, s.opt.DrainGrace)
	finished := make(chan struct{})
	go func() { s.wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(s.opt.DrainGrace):
		s.opt.logf("server %s: drain grace expired, checkpoint-canceling in-flight campaigns", s.opt.Holder)
		s.icancel(errDraining)
		<-finished
	}
	stopHeartbeat()
	s.q.close()
	releaseLock(s.opt.StateDir, s.opt.Holder)
	s.opt.logf("server %s: drained", s.opt.Holder)
	return nil
}

// idOK validates client-supplied campaign ids: they become directory
// names under StateDir/campaigns, so only a conservative charset is
// accepted.
var idOK = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// Submission errors surfaced to the HTTP layer.
var (
	// ErrOverQuota maps to 429 + Retry-After.
	ErrOverQuota = errors.New("server: tenant over campaign quota")
	// ErrSpecConflict maps to 409: same id, different spec.
	ErrSpecConflict = errors.New("server: campaign id exists with a different spec")
	// ErrNotAccepting maps to 503: draining or not yet ready.
	ErrNotAccepting = errors.New("server: not accepting campaigns")
)

// Submit accepts (or idempotently re-accepts) a campaign. The same id
// with a byte-identical canonical spec returns the existing campaign —
// the retry-after-crash contract a client needs when its first submit's
// reply was lost. The same id with a different spec is ErrSpecConflict.
func (s *Server) Submit(id string, sp *Spec) (CampaignView, error) {
	return s.SubmitTrace(id, sp, "")
}

// SubmitTrace is Submit carrying the client's trace context (the
// X-Gpustl-Trace wire format, or ""). The trace is journaled with the
// submit record, so the campaign's execution span — on this server or
// on a successor that adopts the campaign after a crash — is a child
// of the submitting client's span.
func (s *Server) SubmitTrace(id string, sp *Spec, trace string) (CampaignView, error) {
	if !s.ready.Load() || s.draining.Load() {
		return CampaignView{}, ErrNotAccepting
	}
	if !idOK.MatchString(id) || id == "." || id == ".." {
		return CampaignView{}, fmt.Errorf("server: invalid campaign id %q", id)
	}
	if err := sp.Validate(); err != nil {
		return CampaignView{}, err
	}
	canon, err := json.Marshal(sp)
	if err != nil {
		return CampaignView{}, err
	}
	tname := sp.tenant()
	t := s.tenant(tname)
	t.rb.OnRequest()
	s.q.mu.Lock()
	defer s.q.mu.Unlock()
	if c := s.q.camps[id]; c != nil {
		if bytes.Equal(c.SpecRaw, canon) {
			return c.view(), nil
		}
		return CampaignView{}, ErrSpecConflict
	}
	rel, ok := t.adm.TryAcquire(s.ictx, 1)
	if !ok {
		s.mRejected.Inc()
		return CampaignView{}, fmt.Errorf("%w (tenant %s)", ErrOverQuota, tname)
	}
	if err := s.q.append(recSubmit, queueRec{ID: id, Tenant: tname, Spec: canon, Trace: trace}); err != nil {
		rel()
		s.q.mu.Unlock()
		s.crash(err)
		s.q.mu.Lock()
		return CampaignView{}, err
	}
	s.setRelease(id, rel)
	s.mSubmitted.Inc()
	s.updateGaugesLocked()
	s.poke()
	return s.q.camps[id].view(), nil
}

// Cancel requests cancellation of a campaign. Queued campaigns cancel
// immediately; running ones get their executor canceled with an
// explicit cause and journal the terminal record themselves.
func (s *Server) Cancel(id string) (CampaignView, error) {
	s.q.mu.Lock()
	defer s.q.mu.Unlock()
	c := s.q.camps[id]
	if c == nil {
		return CampaignView{}, os.ErrNotExist
	}
	if c.State.Terminal() || c.CancelReq {
		return c.view(), nil
	}
	if err := s.q.append(recCancelReq, queueRec{ID: id}); err != nil {
		s.q.mu.Unlock()
		s.crash(err)
		s.q.mu.Lock()
		return CampaignView{}, err
	}
	if c.State == StateQueued {
		if err := s.q.append(recCanceled, queueRec{ID: id, Error: errCanceledByClient.Error()}); err != nil {
			s.q.mu.Unlock()
			s.crash(err)
			s.q.mu.Lock()
			return CampaignView{}, err
		}
		s.mCanceled.Inc()
		s.releaseQuota(id)
	} else if c.detach != nil {
		c.detach(errCanceledByClient)
	}
	s.updateGaugesLocked()
	return c.view(), nil
}

// Get returns one campaign's view; List returns all in submit order.
func (s *Server) Get(id string) (CampaignView, bool) {
	c := s.q.get(id)
	if c == nil {
		return CampaignView{}, false
	}
	s.q.mu.Lock()
	defer s.q.mu.Unlock()
	return c.view(), true
}

func (s *Server) List() []CampaignView { return s.q.list() }

// Result returns the verified artifact for a done campaign. A cache
// entry that fails verification is never served: the caller gets
// errNotCached (the campaign can be resubmitted to re-simulate).
func (s *Server) Result(id string) ([]byte, error) {
	s.q.mu.Lock()
	c := s.q.camps[id]
	var key string
	var state State
	if c != nil {
		key, state = c.CacheKey, c.State
	}
	s.q.mu.Unlock()
	if c == nil {
		return nil, os.ErrNotExist
	}
	if state != StateDone || key == "" {
		return nil, fmt.Errorf("server: campaign %s is %s, no artifact", id, state)
	}
	b, ok := s.cache.get(key)
	if !ok {
		return nil, fmt.Errorf("%w (key %s: entry missing or failed verification)", errNotCached, key)
	}
	return b, nil
}

// terminal journals a campaign's end state under the queue lock and
// frees its quota slot. Append failure is fail-stop.
func (s *Server) terminal(id, typ string, r queueRec) {
	s.q.mu.Lock()
	err := s.q.append(typ, r)
	s.q.mu.Unlock()
	if err != nil {
		s.crash(err)
		return
	}
	s.releaseQuota(id)
	s.updateGauges()
	s.poke()
}

// requeue journals a campaign back to queued (keeping its quota slot —
// it is still live work). Append failure is fail-stop.
func (s *Server) requeue(id, reason string) {
	s.q.mu.Lock()
	err := s.q.append(recRequeue, queueRec{ID: id, Reason: reason})
	s.q.mu.Unlock()
	if err != nil {
		s.crash(err)
		return
	}
	s.mRequeued.Inc()
	s.updateGauges()
	s.poke()
}

// execute runs one leased campaign to a terminal state (or to a
// requeue, or to silence when the server is crashing). The campaign's
// run journal under StateDir/campaigns/<id> makes every execution
// resumable: a re-run after a crash replays finished PTPs instead of
// simulating them again.
func (s *Server) execute(id string) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancelCause(s.ictx)
	defer cancel(nil)
	s.q.mu.Lock()
	c := s.q.camps[id]
	if c == nil || c.State != StateLeased || c.Holder != s.opt.Holder {
		s.q.mu.Unlock()
		return
	}
	c.detach = cancel
	cancelReq := c.CancelReq
	trace, submitted := c.Trace, c.submitted
	var sp Spec
	err := json.Unmarshal(c.SpecRaw, &sp)
	s.q.mu.Unlock()
	defer func() {
		s.q.mu.Lock()
		if cc := s.q.camps[id]; cc != nil && cc.detach != nil {
			cc.detach = nil
		}
		s.q.mu.Unlock()
	}()
	if err != nil {
		s.mFailed.Inc()
		s.terminal(id, recFailed, queueRec{ID: id, Error: "decoding spec: " + err.Error()})
		return
	}
	// Open the campaign's execution span. When the submit carried a
	// trace context it becomes a remote child of the client's span — the
	// cross-process link that puts every downstream shard simulation in
	// the submitting campaign's trace. A retroactive queue-wait child
	// records the time between submit (as this server learned of it) and
	// execution start, so stltrace can tell queueing from simulating.
	tenant := sp.tenant()
	var execSpan *obs.Span
	if tr := s.opt.Tracer; tr != nil {
		if sc, perr := obs.ParseTraceHeader(trace); trace != "" && perr == nil {
			execSpan = tr.StartRemote(sc, obs.KindCampaign, "execute:"+id)
		} else {
			execSpan = tr.Start(nil, obs.KindCampaign, "execute:"+id)
		}
		execSpan.Annotate("campaign", id)
		execSpan.Annotate("tenant", tenant)
		if !submitted.IsZero() {
			tr.StartAt(execSpan, obs.KindStage, "queue-wait", submitted).End()
		}
		defer execSpan.End()
		ctx = obs.ContextWithSpan(ctx, execSpan)
	}
	execStart := time.Now()
	if cancelReq {
		s.mCanceled.Inc()
		s.terminal(id, recCanceled, queueRec{ID: id, Error: errCanceledByClient.Error()})
		return
	}
	// Cache first: a spec already completed is served from the verified
	// cache without building its environment or touching the fleet. The
	// artifact is already durable, so "done" is journalable immediately.
	key, err := sp.cacheKey()
	if err != nil {
		s.mFailed.Inc()
		s.terminal(id, recFailed, queueRec{ID: id, Error: err.Error()})
		return
	}
	if _, ok := s.cache.get(key); ok {
		execSpan.Annotate("cache", "hit")
		s.hCampaign.Observe(time.Since(execStart).Seconds())
		s.mDone.Inc()
		s.terminal(id, recDone, queueRec{ID: id, CacheKey: key, FromCache: true})
		return
	}
	execSpan.Annotate("cache", "miss")
	env, err := buildEnv(&sp)
	if err != nil {
		s.mFailed.Inc()
		s.terminal(id, recFailed, queueRec{ID: id, Error: err.Error()})
		return
	}
	s.q.mu.Lock()
	err = s.q.append(recRunning, queueRec{ID: id, Holder: s.opt.Holder})
	s.q.mu.Unlock()
	if err != nil {
		s.crash(err)
		return
	}
	s.updateGauges()

	copt := env.copt
	copt.Workers = s.opt.SimWorkers
	copt.Metrics = s.opt.Metrics
	if s.opt.Fleet != nil {
		sim, ferr := s.opt.Fleet()
		if ferr != nil {
			s.finishErr(id, &sp, fmt.Errorf("server: building fleet simulator: %w", ferr), ctx)
			return
		}
		copt.Simulator = sim
	}
	rep, err := run.Run(ctx, env.cfg, env.ms, env.lib, copt, run.Options{
		CheckpointDir: s.runDir(id),
		StageTimeout:  s.opt.StageTimeout,
		FCTolerance:   sp.fcTol(),
		MaxPTPRetries: sp.maxPTPRetries(),
		Logf:          s.opt.Logf,
		Tracer:        s.opt.Tracer,
		Metrics:       s.opt.Metrics,
	})
	if err != nil {
		execSpan.Annotate("error", err.Error())
		s.finishErr(id, &sp, err, ctx)
		return
	}
	var buf bytes.Buffer
	if err := stl.WriteSTL(&buf, rep.Compacted); err != nil {
		s.mFailed.Inc()
		s.terminal(id, recFailed, queueRec{ID: id, Error: "encoding artifact: " + err.Error()})
		return
	}
	if err := s.cache.put(key, buf.Bytes()); err != nil {
		s.mFailed.Inc()
		s.terminal(id, recFailed, queueRec{ID: id, Error: err.Error()})
		return
	}
	s.hCampaign.Observe(time.Since(execStart).Seconds())
	s.mDone.Inc()
	s.terminal(id, recDone, queueRec{ID: id, CacheKey: key})
}

// finishErr classifies a failed execution: client cancellation and
// drain are explicit causes (satellite: context.Cause, not a bare
// context.Canceled); a crashing server journals nothing; transient
// failures retry within the tenant's budget; everything else fails the
// campaign for good.
func (s *Server) finishErr(id string, sp *Spec, err error, ctx context.Context) {
	if s.killed.Load() {
		return // crash path: the journal already holds the last durable truth
	}
	cause := context.Cause(ctx)
	switch {
	case errors.Is(cause, errCanceledByClient):
		s.mCanceled.Inc()
		s.terminal(id, recCanceled, queueRec{ID: id, Error: cause.Error()})
	case errors.Is(cause, errDraining):
		// Checkpointed by run's WAL; the next server resumes it.
		s.requeue(id, errDraining.Error())
	case errors.Is(err, overload.ErrOverloaded) || journal.IsTransient(err):
		if s.tenantRetryAllowed(sp.tenant()) {
			s.requeue(id, "transient: "+err.Error())
		} else {
			s.mFailed.Inc()
			s.terminal(id, recFailed, queueRec{ID: id, Error: "retry budget exhausted: " + err.Error()})
		}
	default:
		s.mFailed.Inc()
		s.terminal(id, recFailed, queueRec{ID: id, Error: err.Error()})
	}
}

func (s *Server) tenantRetryAllowed(name string) bool {
	return s.tenant(name).rb.Allow()
}
