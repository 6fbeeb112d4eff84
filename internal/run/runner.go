package run

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"gpustl/internal/circuits"
	"gpustl/internal/core"
	"gpustl/internal/failpoint"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/obs"
	"gpustl/internal/overload"
	"gpustl/internal/report"
	"gpustl/internal/stl"
)

// Failpoints on the runner's failure surfaces. run.stage.panic fires
// inside pipeline stage transitions, but never at or past the commit
// stage: a crash there quarantines the PTP without retry (committed
// drops make re-running unsound), which would change the output — the
// site exists to exercise the retry path, not to force divergence.
// run.precommit.crash and run.postcommit.crash bracket the journal
// append of a finished PTP, the two halves of the crash-consistency
// contract: before the append a resume redoes the PTP, after it a
// resume skips it, and either way the final report is identical.
var (
	fpStagePanic      = failpoint.New("run.stage.panic")
	fpPrecommitCrash  = failpoint.New("run.precommit.crash")
	fpPostcommitCrash = failpoint.New("run.postcommit.crash")
)

// Status classifies the outcome of one PTP.
type Status string

const (
	// StatusCompacted: the five stages succeeded and the compacted PTP
	// passed the FC-safety guard.
	StatusCompacted Status = "compacted"
	// StatusRevertedError: a stage failed with a deterministic error;
	// the original PTP is kept.
	StatusRevertedError Status = "reverted-error"
	// StatusRevertedFC: compaction succeeded but the compacted PTP's
	// standalone fault coverage fell more than FCTolerance below the
	// original's; the original PTP is kept.
	StatusRevertedFC Status = "reverted-fc"
	// StatusExcluded: the PTP is not a compaction candidate (no
	// admissible regions, or a target module without a gate-level model)
	// and passes through untouched.
	StatusExcluded Status = "excluded"
	// StatusQuarantined: the PTP's pipeline crashed (panic) or stalled
	// (watchdog timeout) on every allowed attempt. The original PTP is
	// kept in the output STL — FC-safe by construction — and the
	// campaign continues instead of aborting or endlessly re-crashing.
	StatusQuarantined Status = "quarantined"
)

// Options tunes the resilient runner.
type Options struct {
	// CheckpointDir enables durable checkpoint/resume: every finished
	// PTP is appended to CheckpointDir/campaign.wal (fsync'd,
	// CRC-protected), and a later run over the same inputs resumes
	// after the last journaled PTP. Empty disables persistence.
	CheckpointDir string
	// Deadline bounds the whole campaign: Run derives its context with
	// this timeout, and the deadline propagates through the fault
	// simulator down to distributed workers (X-Gpustl-Deadline), so no
	// tier burns cycles on a campaign that already timed out. A run that
	// hits the deadline behaves exactly like a canceled one: finished
	// PTPs are journaled, a resume picks up after them. 0 disables.
	Deadline time.Duration
	// Admission, when set, gates the campaign through an overload
	// admission pool: Run acquires len of the library's programs worth of
	// cost before creating the checkpoint directory or any artifact, so a
	// shed campaign leaves no partial state — it fails fast with
	// ErrOverloaded and nothing to clean up. A nil pool admits instantly.
	Admission *overload.Admission
	// StageTimeout bounds each pipeline stage of each PTP; a stage that
	// exceeds it is canceled and the PTP falls to the quarantine
	// policy. 0 disables the watchdog.
	StageTimeout time.Duration
	// FCTolerance is the maximum standalone fault-coverage loss (in
	// percentage points) a compacted PTP may show before the FC-safety
	// guard reverts it. 0 means any measurable loss reverts.
	FCTolerance float64
	// MaxPTPRetries is how many times a PTP whose pipeline panics or
	// times out is re-attempted before being quarantined (kept in its
	// original form while the campaign continues). 0 quarantines on the
	// first crash. Deterministic stage errors are never retried. A
	// crash after the stage-3 fault simulation committed its drops is
	// quarantined immediately regardless — re-running against the
	// mutated campaign would mislabel instructions.
	MaxPTPRetries int
	// StageHook, when set, is called as each PTP enters each stage.
	// Returning an error aborts that PTP (it reverts). Used by tests to
	// inject failures and by callers for progress reporting.
	StageHook func(ptp string, stage core.Stage) error
	// Logf, when set, receives operational notes (journal salvage,
	// quarantine retries) as they happen.
	Logf func(format string, args ...any)
	// Tracer, when set, records the campaign -> PTP -> stage span
	// hierarchy of the run. Spans are contiguous within a PTP (each
	// stage span ends as the next begins), so the per-stage totals of a
	// trace account for the campaign's wall-clock.
	Tracer *obs.Tracer
	// Metrics, when set, receives the runner's counters and gauges
	// (outcome counts, retries, FC deltas, progress) and is threaded
	// into the fault simulator through core.Options by the caller.
	Metrics *obs.Registry
	// Usage, when set with Tenant, meters per-tenant consumption the
	// runner can see directly: bytes appended to the campaign journal.
	// (Worker-seconds and cache traffic are metered by the server,
	// which owns those resources.)
	Usage *obs.UsageMeter
	// Tenant attributes Usage; empty disables usage metering.
	Tenant string
	// OnOutcome, when set, is called after every PTP settles (including
	// resumed ones) with the outcome and running progress — the hook the
	// CLI's live progress line hangs off.
	OnOutcome func(o Outcome, done, total int)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Outcome is one PTP's row of the run report. The numeric fields are
// duplicated out of core.Result so a resumed run (which never re-runs
// finished PTPs) renders byte-identically to an uninterrupted one.
type Outcome struct {
	Name   string
	Status Status
	Stage  core.Stage // stage reached when a failure occurred
	Err    string
	// Attempts counts pipeline attempts (>1 only for retried PTPs).
	Attempts int

	OrigSize, CompSize         int
	OrigDuration, CompDuration uint64
	OrigFC, CompFC             float64
	DetectedThisRun            int
	// Resumed marks outcomes reconstructed from the journal rather
	// than computed this run (not rendered: reports must not depend on
	// where the work ran).
	Resumed bool
}

// Report is the result of a resilient STL compaction run.
type Report struct {
	Outcomes []Outcome
	// Compacted holds one PTP per library entry, in order: the compacted
	// program where compaction succeeded, the original otherwise.
	Compacted          *stl.STL
	OrigSize, CompSize int
	Excluded           int
	Reverted           int
	Quarantined        int
	Resumed            int
	// Notes carries operational messages (journal salvage).
	// They are not part of Render — reports stay byte-identical across
	// kills and resumes.
	Notes []string
}

// SizeReduction returns the whole-STL size compaction percentage.
func (r *Report) SizeReduction() float64 {
	if r.OrigSize == 0 {
		return 0
	}
	return 100 * (1 - float64(r.CompSize)/float64(r.OrigSize))
}

// Render writes the run report. The output is deterministic — no
// wall-clock times, no resume markers — so a run that was killed and
// resumed renders byte-identically to one that ran straight through.
func (r *Report) Render(w io.Writer) {
	tb := report.Table{
		Title:   "RESILIENT STL COMPACTION",
		Headers: []string{"PTP", "status", "size", "duration", "FC", "detected"},
	}
	for _, o := range r.Outcomes {
		status := string(o.Status)
		if o.Status == StatusRevertedError || o.Status == StatusQuarantined {
			status += " @" + string(o.Stage)
		}
		size := fmt.Sprintf("%d", o.OrigSize)
		dur := "-"
		fc := "-"
		det := "-"
		if o.Status == StatusCompacted || o.Status == StatusRevertedFC {
			size = fmt.Sprintf("%d->%d", o.OrigSize, o.CompSize)
			dur = fmt.Sprintf("%d->%d", o.OrigDuration, o.CompDuration)
			fc = fmt.Sprintf("%.2f->%.2f", o.OrigFC, o.CompFC)
			det = fmt.Sprintf("%d", o.DetectedThisRun)
		}
		tb.AddRow(o.Name, status, size, dur, fc, det)
	}
	tb.Render(w)
	fmt.Fprintf(w, "total: %d -> %d instructions (%.2f%% smaller), %d excluded, %d reverted, %d quarantined\n",
		r.OrigSize, r.CompSize, r.SizeReduction(), r.Excluded, r.Reverted, r.Quarantined)
	for _, o := range r.Outcomes {
		if o.Err != "" {
			fmt.Fprintf(w, "  %s: %s\n", o.Name, o.Err)
		}
	}
}

// Run compacts the whole library with per-PTP fault isolation, sharing
// one fault campaign per target module so PTPs compacted in sequence
// drop each other's faults; PTPs with no admissible regions pass through
// untouched. A PTP that fails — stage error, panic, watchdog
// timeout, or FC-safety violation — does not abort the run: the original
// PTP is kept, the failure is recorded in its Outcome, and the remaining
// PTPs still compact. Crash-class failures (panic/timeout) are retried
// up to MaxPTPRetries times and then quarantined. Only a canceled
// parent context (or a journal I/O failure) stops the run, and then the
// returned partial Report is still valid alongside the error; with a
// CheckpointDir the next Run resumes after the last journaled PTP.
func Run(ctx context.Context, cfg gpu.Config, ms *core.ModuleSet, lib *stl.STL,
	copt core.Options, opts Options) (*Report, error) {

	hash, err := ConfigHash(cfg, ms, lib, copt)
	if err != nil {
		return nil, err
	}
	if opts.Deadline > 0 {
		// WithTimeoutCause: when the deadline fires, context.Cause names
		// the campaign deadline instead of a bare DeadlineExceeded, and
		// every abort path below reports it.
		var cancel context.CancelFunc
		// The cause wraps DeadlineExceeded so errors.Is classification
		// (and journal.IsTransient) still see the sentinel.
		ctx, cancel = context.WithTimeoutCause(ctx, opts.Deadline,
			fmt.Errorf("run: campaign deadline %s exceeded: %w", opts.Deadline, context.DeadlineExceeded))
		defer cancel()
	}
	// Admission comes before MkdirAll and the journal open: a shed
	// campaign must leave no artifact at all, only a fast ErrOverloaded.
	var cost int64
	for _, p := range lib.PTPs {
		cost += int64(len(p.Prog))
	}
	release, aerr := opts.Admission.Acquire(ctx, cost)
	if aerr != nil {
		return nil, fmt.Errorf("run: campaign shed by admission control: %w", aerr)
	}
	defer release()
	rep := &Report{Compacted: &stl.STL{}}
	ck := &Checkpoint{Version: CheckpointVersion, ConfigHash: hash}
	var clog *campaignLog
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o777); err != nil {
			return nil, fmt.Errorf("run: checkpoint dir: %w", err)
		}
		cl, cck, notes, err := openCampaign(ctx, opts.CheckpointDir, hash, len(lib.PTPs))
		if err != nil {
			return nil, err
		}
		clog, ck = cl, cck
		rep.Notes = notes
		for _, n := range notes {
			opts.logf("%s", n)
		}
		defer clog.Close()
	}

	// The campaign span parents on whatever span the caller put in ctx
	// (the server's execute span, itself possibly a remote child of the
	// submitting client), so a distributed campaign's whole pipeline
	// lands in one trace.
	campSpan := opts.Tracer.Start(obs.SpanFromContext(ctx), obs.KindCampaign, "campaign")
	campSpan.Annotate("ptps", fmt.Sprintf("%d", len(lib.PTPs)))
	defer campSpan.End()
	if opts.Usage != nil && opts.Tenant != "" && clog != nil {
		startBytes := clog.j.Size()
		defer func() {
			if delta := clog.j.Size() - startBytes; delta > 0 {
				opts.Usage.AddJournalBytes(opts.Tenant, uint64(delta))
			}
		}()
	}
	opts.Metrics.Gauge("gpustl_run_ptps_planned").Set(float64(len(lib.PTPs)))

	compactors := map[circuits.ModuleKind]*core.Compactor{}
	for kind, m := range ms.Modules {
		compactors[kind] = core.New(cfg, m, ms.Faults[kind], copt)
	}
	// dropped tracks each campaign's detected-id set so the per-PTP
	// journal record carries only this PTP's delta.
	dropped := map[circuits.ModuleKind][]fault.ID{}

	for i, p := range lib.PTPs {
		c := compactors[p.Target]
		if i < len(ck.Entries) {
			// Resume path: validate the entry against the library, then
			// replay its campaign delta and report row.
			e := ck.Entries[i]
			ph, err := HashPTP(p)
			if err != nil {
				return rep, err
			}
			if e.Index != i || e.Name != p.Name || e.OrigHash != ph {
				return rep, fmt.Errorf("run: journaled entry %d (%s) does not match library PTP %s; delete %s to start over",
					i, e.Name, p.Name, opts.CheckpointDir)
			}
			comp := p
			if e.Status == StatusCompacted {
				comp, err = stl.ReadPTP(bytes.NewReader(e.Compacted))
				if err != nil {
					return rep, fmt.Errorf("run: journaled entry %d: %w", i, err)
				}
			}
			if c != nil && len(e.DroppedFaults) > 0 {
				ids := make([]fault.ID, len(e.DroppedFaults))
				for j, id := range e.DroppedFaults {
					ids[j] = fault.ID(id)
				}
				if err := c.Campaign.RestoreDetected(ids); err != nil {
					return rep, fmt.Errorf("run: journaled entry %d: %w", i, err)
				}
				dropped[p.Target] = c.Campaign.DetectedIDs()
			}
			o := Outcome{
				Name: e.Name, Status: e.Status, Stage: core.Stage(e.Stage), Err: e.Error,
				Attempts: e.Attempts,
				OrigSize: e.OrigSize, CompSize: e.CompSize,
				OrigDuration: e.OrigDuration, CompDuration: e.CompDuration,
				OrigFC: e.OrigFC, CompFC: e.CompFC,
				DetectedThisRun: e.DetectedThisRun,
				Resumed:         true,
			}
			rep.Resumed++
			accumulate(rep, o, comp)
			opts.Metrics.Counter("gpustl_run_resumed_total").Inc()
			opts.recordOutcome(o, len(rep.Outcomes), len(lib.PTPs))
			continue
		}

		if err := ctx.Err(); err != nil {
			// Canceled between PTPs: the journal already holds every
			// finished entry, so just surface the partial report. The
			// cause (admission shed, campaign deadline, client cancel)
			// beats the bare Canceled/DeadlineExceeded sentinel.
			return rep, fmt.Errorf("run: canceled after %d of %d PTPs: %w",
				i, len(lib.PTPs), context.Cause(ctx))
		}

		e := Entry{Index: i, Name: p.Name, OrigSize: len(p.Prog)}
		if e.OrigHash, err = HashPTP(p); err != nil {
			return rep, err
		}

		ptpSpan := opts.Tracer.Start(campSpan, obs.KindPTP, p.Name)
		comp := p
		if c == nil || len(p.ARCs()) == 0 {
			e.Status = StatusExcluded
			e.CompSize = len(p.Prog)
		} else {
			res, stage, attempts, cerr := compactWithRetry(ctx, c, p, opts, ptpSpan)
			e.Attempts = attempts
			// Record the campaign delta whatever the outcome: stage-3
			// drops may have committed even when a later stage failed,
			// and the original (kept) PTP covers a superset of them.
			ids := c.Campaign.DetectedIDs()
			e.DroppedFaults = diffIDs(dropped[p.Target], ids)
			dropped[p.Target] = ids

			switch {
			case cerr != nil && ctx.Err() != nil:
				// The parent context died mid-PTP: this PTP is not
				// finished, so do not journal it — a resume redoes it.
				ptpSpan.Annotate("canceled", "true")
				ptpSpan.End()
				if cause := context.Cause(ctx); cause != nil &&
					!errors.Is(cause, context.Canceled) && !errors.Is(cerr, cause) {
					return rep, fmt.Errorf("%w (campaign aborted: %v)", cerr, cause)
				}
				return rep, cerr
			case cerr != nil && failKindOf(cerr) == FailOverload:
				// Overload is the cluster's state, not this PTP's fault:
				// journaling a quarantine would poison a healthy PTP.
				// Abort the campaign instead — everything finished so far
				// is journaled, and a resume retries this PTP when load
				// has eased.
				ptpSpan.Annotate("overloaded", "true")
				ptpSpan.End()
				opts.Metrics.Counter("gpustl_run_overload_aborts_total").Inc()
				return rep, fmt.Errorf("run: PTP %s shed by overload protection after %d attempt(s); resume retries it: %w",
					p.Name, attempts, cerr)
			case cerr != nil:
				se, _ := cerr.(*StageError)
				e.Stage = string(stage)
				e.Error = cerr.Error()
				e.CompSize = len(p.Prog)
				if se != nil && se.Retryable() {
					e.Status = StatusQuarantined
					e.Error = fmt.Sprintf("quarantined after %d attempt(s): %v", attempts, cerr)
				} else {
					e.Status = StatusRevertedError
				}
			default:
				e.CompSize = res.CompSize
				e.OrigDuration = res.OrigDuration
				e.CompDuration = res.CompDuration
				e.OrigFC = res.OrigFC
				e.CompFC = res.CompFC
				e.TotalSBs = res.TotalSBs
				e.RemovedSBs = res.RemovedSBs
				e.Essential = res.Essential
				e.Unessential = res.Unessential
				e.DetectedThisRun = res.DetectedThisRun
				if res.CompFC < res.OrigFC-opts.FCTolerance {
					// FC-safety guard: the compacted program lost more
					// coverage than tolerated; ship the original.
					e.Status = StatusRevertedFC
					e.Error = fmt.Sprintf("run: PTP %s compacted FC %.2f%% is %.2f points below original %.2f%% (tolerance %.2f)",
						p.Name, res.CompFC, res.OrigFC-res.CompFC, res.OrigFC, opts.FCTolerance)
				} else {
					e.Status = StatusCompacted
					comp = res.Compacted
					var buf bytes.Buffer
					if err := stl.WritePTP(&buf, comp); err != nil {
						return rep, fmt.Errorf("run: serializing compacted %s: %w", p.Name, err)
					}
					e.Compacted = json.RawMessage(buf.Bytes())
				}
			}
		}

		ck.Entries = append(ck.Entries, e)
		if clog != nil {
			// Crash-consistency brackets around the commit: a crash (or
			// injected error) before the append loses the entry — a
			// resume redoes this PTP; after it the entry is durable — a
			// resume skips it. Entries are deterministic, so both paths
			// converge on the same report.
			if err := fpPrecommitCrash.Inject(ctx); err != nil {
				ptpSpan.End()
				return rep, err
			}
			// The journal append (fsync'd) is real wall-clock work; give
			// it its own stage span so trace totals stay honest.
			ckSpan := opts.Tracer.Start(ptpSpan, obs.KindStage, "checkpoint")
			err := clog.appendOutcome(e)
			ckSpan.End()
			if err != nil {
				ptpSpan.End()
				return rep, err
			}
			if err := fpPostcommitCrash.Inject(ctx); err != nil {
				ptpSpan.End()
				return rep, err
			}
		}
		ptpSpan.Annotate("status", string(e.Status))
		if e.Attempts > 1 {
			ptpSpan.Annotate("attempts", fmt.Sprintf("%d", e.Attempts))
		}
		ptpSpan.End()
		o := Outcome{
			Name: e.Name, Status: e.Status, Stage: core.Stage(e.Stage), Err: e.Error,
			Attempts: e.Attempts,
			OrigSize: e.OrigSize, CompSize: e.CompSize,
			OrigDuration: e.OrigDuration, CompDuration: e.CompDuration,
			OrigFC: e.OrigFC, CompFC: e.CompFC,
			DetectedThisRun: e.DetectedThisRun,
		}
		accumulate(rep, o, comp)
		opts.recordOutcome(o, len(rep.Outcomes), len(lib.PTPs))
	}
	return rep, nil
}

// recordOutcome publishes one settled PTP's counters and fires the
// progress hook. The FC-delta gauge tracks the most recent measured
// compaction (CompFC - OrigFC, percentage points).
func (o Options) recordOutcome(out Outcome, done, total int) {
	if m := o.Metrics; m != nil {
		m.Counter("gpustl_run_ptps_total").Inc()
		switch out.Status {
		case StatusCompacted:
			m.Counter("gpustl_run_compacted_total").Inc()
		case StatusRevertedError, StatusRevertedFC:
			m.Counter("gpustl_run_reverted_total").Inc()
		case StatusQuarantined:
			m.Counter("gpustl_run_quarantined_total").Inc()
		case StatusExcluded:
			m.Counter("gpustl_run_excluded_total").Inc()
		}
		if out.Attempts > 1 {
			m.Counter("gpustl_run_ptp_retries_total").Add(uint64(out.Attempts - 1))
		}
		if out.Status == StatusCompacted || out.Status == StatusRevertedFC {
			m.Gauge("gpustl_run_fc_delta_pct").Set(out.CompFC - out.OrigFC)
		}
		m.Gauge("gpustl_run_ptps_done").Set(float64(done))
	}
	if o.OnOutcome != nil {
		o.OnOutcome(out, done, total)
	}
}

// accumulate appends one outcome and its surviving PTP to the report.
func accumulate(rep *Report, o Outcome, comp *stl.PTP) {
	rep.Outcomes = append(rep.Outcomes, o)
	rep.Compacted.PTPs = append(rep.Compacted.PTPs, comp)
	rep.OrigSize += o.OrigSize
	rep.CompSize += len(comp.Prog)
	switch o.Status {
	case StatusExcluded:
		rep.Excluded++
	case StatusRevertedError, StatusRevertedFC:
		rep.Reverted++
	case StatusQuarantined:
		rep.Quarantined++
	}
}

// compactWithRetry runs compactOne under the quarantine policy: a
// crash-class failure (panic or watchdog timeout) is retried up to
// opts.MaxPTPRetries times, as long as the failed attempt did not
// commit fault drops to the shared campaign — once stage 3 committed,
// a re-run would label instructions against the mutated campaign and
// over-compact, so the PTP goes straight to quarantine. Deterministic
// stage errors are never retried.
func compactWithRetry(ctx context.Context, c *core.Compactor, p *stl.PTP,
	opts Options, ptpSpan *obs.Span) (res *core.Result, stage core.Stage, attempts int, err error) {

	for {
		attempts++
		before := c.Campaign.Detected()
		res, stage, err = compactOne(ctx, c, p, opts, ptpSpan)
		if err == nil || ctx.Err() != nil {
			return res, stage, attempts, err
		}
		se, ok := err.(*StageError)
		if !ok || !se.Retryable() || attempts > opts.MaxPTPRetries {
			return res, stage, attempts, err
		}
		if core.CommitStage(stage) || c.Campaign.Detected() != before {
			opts.logf("run: PTP %s crashed at stage %s after committing campaign drops; quarantining without retry", p.Name, stage)
			return res, stage, attempts, err
		}
		opts.logf("run: PTP %s attempt %d failed (%s at stage %s); retrying (%d left)",
			p.Name, attempts, se.Kind, stage, opts.MaxPTPRetries-attempts+1)
	}
}

// compactOne runs the pipeline on one PTP with panic isolation and a
// per-stage watchdog. The returned stage is the last stage entered, for
// failure attribution; err (when non-nil) is a *StageError whose Kind
// distinguishes panics and watchdog timeouts from plain errors.
func compactOne(ctx context.Context, c *core.Compactor, p *stl.PTP,
	opts Options, ptpSpan *obs.Span) (res *core.Result, stage core.Stage, err error) {

	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	// Layers below the compactor (the dist coordinator, the local
	// simulator) only see this context; carrying the PTP span lets them
	// parent shard spans into the campaign trace.
	cctx = obs.ContextWithSpan(cctx, ptpSpan)

	// curStage mirrors stage for the watchdog's cause message: the timer
	// fires on its own goroutine, so it must not read the plain local.
	var curStage atomic.Value
	curStage.Store(core.StagePartition)

	// Stage spans are contiguous: each stage span ends exactly when the
	// next stage is entered (and the last when the attempt returns), so
	// their durations tile the PTP span without gaps or overlap.
	var stageSpan *obs.Span
	defer func() { stageSpan.End() }()

	// The watchdog cancels the derived context if any single stage runs
	// longer than StageTimeout; entering the next stage re-arms it. The
	// pipeline polls the context inside both simulations, so a hung
	// stage dies within microseconds of the timer firing.
	var watchdog *time.Timer
	if opts.StageTimeout > 0 {
		watchdog = time.AfterFunc(opts.StageTimeout, func() {
			cancel(fmt.Errorf("run: deadline exceeded at stage %s (watchdog %s)",
				curStage.Load(), opts.StageTimeout))
		})
		defer watchdog.Stop()
	}

	stage = core.StagePartition
	onStage := func(s core.Stage) error {
		stage = s
		curStage.Store(s)
		stageSpan.End()
		stageSpan = opts.Tracer.Start(ptpSpan, obs.KindStage, string(s))
		if watchdog != nil {
			watchdog.Reset(opts.StageTimeout)
		}
		if !core.CommitStage(s) {
			// Gated to pre-commit stages: a crash here is retried by the
			// quarantine policy without touching committed state.
			if err := fpStagePanic.Inject(cctx); err != nil {
				return err
			}
		}
		if opts.StageHook != nil {
			return opts.StageHook(p.Name, s)
		}
		return nil
	}

	kind := FailError
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic: %v", r)
			kind = FailPanic
		}
		if err != nil {
			switch {
			case errors.Is(err, overload.ErrOverloaded):
				// Overload protection (admission shed, retry budget dry)
				// refused the work: environmental, not this PTP's fault.
				kind = FailOverload
			case kind == FailError && cctx.Err() != nil && ctx.Err() == nil:
				// Only the watchdog cancels the derived context while
				// the parent is still alive. Its cause names the stage
				// that overran — report that, not "context canceled".
				kind = FailTimeout
				if cause := context.Cause(cctx); cause != nil && !errors.Is(cause, context.Canceled) {
					err = cause
				}
			}
			res = nil
			err = &StageError{Stage: stage, PTP: p.Name, Kind: kind, Err: err}
		}
	}()
	res, err = c.CompactPTPCtx(cctx, p, onStage)
	return
}

// diffIDs returns the elements of cur not in prev; both are ascending.
func diffIDs(prev, cur []fault.ID) []int32 {
	var out []int32
	j := 0
	for _, id := range cur {
		for j < len(prev) && prev[j] < id {
			j++
		}
		if j < len(prev) && prev[j] == id {
			continue
		}
		out = append(out, int32(id))
	}
	return out
}
