// Package chaos is the soak harness behind `make chaos` and
// cmd/chaossoak: it runs whole compaction campaigns under seeded
// failpoint schedules — torn journal writes, mid-commit crashes, stage
// panics, lossy and Byzantine worker fleets — and asserts that every
// campaign's compacted STL is byte-identical to a fault-free reference
// run. The harness is the executable form of the repo's durability
// contract: whatever the failpoints do, recovery (journal self-heal,
// checkpoint resume, shard retry, verification quarantine) must converge
// on the same output bytes.
package chaos

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"gpustl/internal/core"
	"gpustl/internal/dist"
	"gpustl/internal/failpoint"
	"gpustl/internal/gpu"
	"gpustl/internal/obs"
	"gpustl/internal/ptpgen"
	"gpustl/internal/run"
	"gpustl/internal/stl"
)

// Schedule is one named fault scenario: which failpoints to arm, and
// what execution topology the campaign runs under. Each iteration arms
// its own failpoint.Set and hands it to its campaign through the ctx,
// so concurrent schedules may arm any sites, the same ones included:
// no schedule's faults ever reach another's campaign.
type Schedule struct {
	Name string
	// Failpoints maps registered failpoint names to the config armed
	// for every campaign iteration of this schedule. Each iteration
	// arms a fresh set, refreshing Times budgets.
	Failpoints map[string]failpoint.Config
	// Workers > 0 distributes fault simulations across that many
	// in-process worker transports via a dist.Coordinator; 0 simulates
	// in-process (journal/run faults only).
	Workers int
	// FaultyWorkers is how many of the Workers are wrapped with this
	// schedule's dist.* failpoints; the rest are honest.
	FaultyWorkers int
	// VerifyFraction is passed to the coordinator (Byzantine
	// re-execution + vote). Schedules arming dist.reply.byzantine need
	// it > 0 — nothing else can catch a plausible lie.
	VerifyFraction float64
	// ExpectQuarantine asserts that at least one worker is banned by
	// the end of each campaign.
	ExpectQuarantine bool
	// MaxPTPRetries for the resilient runner (crash-class PTP retries).
	MaxPTPRetries int
	// Overload switches the schedule to the overload round (see
	// RunOverloadRound): three campaigns offered against an admission
	// pool sized for one, instead of RunCampaign's single campaign.
	Overload bool
	// Server switches the schedule to the control-plane round (see
	// RunServerRound): campaigns submitted to an in-process stlserver
	// that is killed and restarted at journaled cut points.
	Server bool
}

// Spec renders the schedule's failpoint arming for iteration iter as
// the comma-separated `-failpoints` spec string stlcompact, stlworker
// and chaossoak accept — the exact line that reproduces a failing
// campaign standalone (with the per-iteration seed offset).
func (s Schedule) Spec(iter int) string {
	cfgs := s.configs(iter)
	names := make([]string, 0, len(cfgs))
	for n := range cfgs {
		names = append(names, n)
	}
	sort.Strings(names)
	entries := make([]string, 0, len(names))
	for _, n := range names {
		entries = append(entries, n+"="+cfgs[n].Spec())
	}
	return strings.Join(entries, ",")
}

// configs returns the schedule's failpoint configs for iteration iter,
// each seed offset by the iteration so consecutive campaigns draw
// different (but still deterministic) fate sequences.
func (s Schedule) configs(iter int) map[string]failpoint.Config {
	cfgs := make(map[string]failpoint.Config, len(s.Failpoints))
	for name, cfg := range s.Failpoints {
		cfg.Seed += int64(iter) * 7919
		cfgs[name] = cfg
	}
	return cfgs
}

// Result is one schedule's soak outcome.
type Result struct {
	Schedule  string
	Campaigns int // campaigns that finished and matched the reference
	Crashes   int // Run aborts (injected journal/commit errors) resumed from checkpoint
	Restarts  int // campaigns wiped and redone after injected-quarantine divergence
	Banned    int // workers quarantined across all campaigns
	Admitted  int // overload rounds: campaigns admitted and completed
	Shed      int // overload rounds: ErrOverloaded refusals (forced + injected)
	// Iter is the schedule iteration running when Err was set (its seed
	// offset is what Spec(Iter) reproduces); meaningless when Err is nil.
	Iter int
	Err  error
}

// Harness owns the reference workload: a small DU-class STL library
// (the same shape internal/run's own tests compact) and its fault-free
// compacted bytes.
type Harness struct {
	Cfg    gpu.Config
	Sample int   // per-module fault sample for core.NewModuleSet
	Seed   int64 // base seed: failpoint fates and coordinator jitter derive from it
	// MaxCrashes bounds the crash-resume-retry loop per campaign;
	// exceeding it fails the schedule (an injected fault that recovery
	// cannot converge past is a bug).
	MaxCrashes int
	Logf       func(format string, args ...any)
	Metrics    *obs.Registry

	refOnce sync.Once
	refErr  error
	ref     []byte
}

// NewHarness returns a harness over the canonical small workload.
func NewHarness(seed int64) *Harness {
	return &Harness{Cfg: gpu.DefaultConfig(), Sample: 1500, Seed: seed, MaxCrashes: 50}
}

func (h *Harness) logf(format string, args ...any) {
	if h.Logf != nil {
		h.Logf(format, args...)
	}
}

// env rebuilds the library and module set. Campaign state inside the
// module set is mutated by a run, so every campaign gets a fresh one.
func (h *Harness) env() (*stl.STL, *core.ModuleSet, error) {
	lib := &stl.STL{PTPs: []*stl.PTP{
		ptpgen.IMM(20, 61),
		ptpgen.MEM(20, 62),
		ptpgen.DIVG(3, 2, 63), // excluded: exercises the passthrough path
	}}
	ms, err := core.NewModuleSet(lib, h.Sample, 1)
	if err != nil {
		return nil, nil, err
	}
	return lib, ms, nil
}

// Reference computes (once) the fault-free compacted STL bytes every
// chaos campaign must reproduce. It disarms whatever failpoint set ctx
// carries, so it may be called from inside an armed campaign.
func (h *Harness) Reference(ctx context.Context) ([]byte, error) {
	ctx = failpoint.WithSet(ctx, nil)
	h.refOnce.Do(func() {
		lib, ms, err := h.env()
		if err != nil {
			h.refErr = err
			return
		}
		rep, err := run.Run(ctx, h.Cfg, ms, lib,
			core.Options{Workers: 4}, run.Options{FCTolerance: 5})
		if err != nil {
			h.refErr = fmt.Errorf("chaos: fault-free reference run: %w", err)
			return
		}
		h.ref, h.refErr = stlBytes(rep.Compacted)
	})
	return h.ref, h.refErr
}

func stlBytes(s *stl.STL) ([]byte, error) {
	var buf bytes.Buffer
	if err := stl.WriteSTL(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RunCampaign runs one chaos campaign under the failpoint set ctx
// carries (the schedule's arming for this iteration) and returns when
// the compacted output byte-matches ref.
//
// The loop has two recovery tiers, mirroring production operation:
//
//   - An error from run.Run (injected journal/commit failure) is a
//     crash: the process would die and restart, so the loop re-invokes
//     Run against the same checkpoint dir and the campaign resumes
//     after the last durable PTP.
//   - A report whose outcomes contain quarantined or errored PTPs is a
//     designed-in degradation (stage-panic budgets exceeded, shards
//     permanently failed): the output legitimately differs from the
//     reference, so the campaign is wiped and redone from scratch —
//     failpoint Times budgets are finite, so a clean pass follows.
//
// A byte mismatch on a campaign whose outcomes are all clean is a real
// divergence and fails immediately: recovery produced different bytes
// than the fault-free pipeline.
func (h *Harness) RunCampaign(ctx context.Context, s Schedule, res *Result) error {
	ref, err := h.Reference(ctx)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "chaossoak-"+strings.Map(func(r rune) rune {
		if r == '/' || r == os.PathSeparator {
			return '_'
		}
		return r
	}, s.Name)+"-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	banned := 0 // cumulative over crash-resume attempts of this campaign
	for crashes := 0; ; {
		if err := ctx.Err(); err != nil {
			return err
		}
		lib, ms, err := h.env()
		if err != nil {
			return err
		}
		copt := core.Options{Workers: 4}
		ropt := run.Options{
			CheckpointDir: dir,
			FCTolerance:   5,
			MaxPTPRetries: s.MaxPTPRetries,
			Metrics:       h.Metrics,
		}
		var co *dist.Coordinator
		if s.Workers > 0 {
			transports := make([]dist.Transport, s.Workers)
			for i := range transports {
				t := dist.Transport(dist.NewLocal(fmt.Sprintf("%s-w%d", s.Name, i)))
				if i < s.FaultyWorkers {
					t = dist.WithFailpoints(t, failpoint.FromContext(ctx))
				}
				transports[i] = t
			}
			co, err = dist.New(dist.Options{
				MaxAttempts:       8,
				BaseBackoff:       2 * time.Millisecond,
				MaxBackoff:        25 * time.Millisecond,
				HeartbeatInterval: 15 * time.Millisecond,
				HeartbeatMisses:   2,
				Seed:              h.Seed,
				VerifyFraction:    s.VerifyFraction,
				Metrics:           h.Metrics,
			}, transports...)
			if err != nil {
				return err
			}
			copt.Simulator = co
		}
		rep, err := run.Run(ctx, h.Cfg, ms, lib, copt, ropt)
		if co != nil {
			// Bans are per-coordinator, and a crash-resume attempt builds a
			// fresh one (a resumed run may even replay every PTP from the
			// checkpoint and simulate nothing) — so quarantine is asserted
			// cumulatively over the campaign, after it succeeds.
			banned += len(co.Banned())
			res.Banned += len(co.Banned())
			co.Close()
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Injected crash: resume from the checkpoint, like a
			// restarted process would.
			crashes++
			res.Crashes++
			if crashes > h.MaxCrashes {
				return fmt.Errorf("chaos: %s: campaign still failing after %d crashes: %w",
					s.Name, crashes, err)
			}
			h.logf("chaos: %s: crash %d (%v); resuming", s.Name, crashes, err)
			continue
		}
		if degraded(rep) {
			// Quarantined/errored PTPs keep their originals — a
			// legitimate, designed-in divergence. Redo from scratch;
			// the injected budgets that caused it are spent.
			crashes++
			res.Restarts++
			if crashes > h.MaxCrashes {
				return fmt.Errorf("chaos: %s: campaign still degraded after %d attempts", s.Name, crashes)
			}
			h.logf("chaos: %s: degraded campaign (restart %d)", s.Name, res.Restarts)
			if err := wipe(dir); err != nil {
				return err
			}
			continue
		}
		got, err := stlBytes(rep.Compacted)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, ref) {
			return fmt.Errorf("chaos: %s: clean campaign produced %d bytes differing from the %d-byte fault-free reference",
				s.Name, len(got), len(ref))
		}
		if s.ExpectQuarantine && banned == 0 {
			return fmt.Errorf("chaos: %s: Byzantine worker was never quarantined", s.Name)
		}
		return nil
	}
}

// degraded reports whether any PTP settled in a state the fault-free
// reference run cannot contain (quarantine or error-revert).
func degraded(rep *run.Report) bool {
	for _, o := range rep.Outcomes {
		if o.Status == run.StatusQuarantined || o.Status == run.StatusRevertedError {
			return true
		}
	}
	return false
}

func wipe(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o777)
}

// SoakSchedule loops campaigns of one schedule until ctx expires or
// iters campaigns completed (iters <= 0 means until ctx expires),
// arming a fresh failpoint set for each campaign.
func (h *Harness) SoakSchedule(ctx context.Context, s Schedule, iters int) Result {
	res := Result{Schedule: s.Name}
	for i := 0; iters <= 0 || res.Campaigns < iters; i++ {
		if ctx.Err() != nil {
			break
		}
		res.Iter = i
		set, err := failpoint.NewSet(s.configs(i))
		if err != nil {
			res.Err = fmt.Errorf("chaos: schedule %s: %w", s.Name, err)
			break
		}
		round := h.RunCampaign
		if s.Overload {
			round = h.RunOverloadRound
		}
		if s.Server {
			round = h.RunServerRound
		}
		if err := round(failpoint.WithSet(ctx, set), s, &res); err != nil {
			if ctx.Err() != nil {
				break // deadline hit mid-campaign: not a failure
			}
			res.Err = err
			break
		}
		res.Campaigns++
		h.logf("chaos: %s: campaign %d ok (crashes %d, restarts %d)",
			s.Name, res.Campaigns, res.Crashes, res.Restarts)
	}
	return res
}

// Soak runs every schedule concurrently until ctx expires (or iters
// campaigns per schedule). Each campaign runs under its own schedule's
// set, so schedules may overlap freely.
func (h *Harness) Soak(ctx context.Context, schedules []Schedule, iters int) ([]Result, error) {
	results := make([]Result, len(schedules))
	var wg sync.WaitGroup
	for i, s := range schedules {
		wg.Add(1)
		go func(i int, s Schedule) {
			defer wg.Done()
			results[i] = h.SoakSchedule(ctx, s, iters)
		}(i, s)
	}
	wg.Wait()
	var firstErr error
	for _, r := range results {
		if r.Err != nil && firstErr == nil {
			firstErr = r.Err
		}
	}
	return results, firstErr
}

// Schedules is the canonical soak set: eight concurrent schedules that
// together arm every registered site — journal torn writes and
// disk-full, commit-bracket crashes, stage panics, a lossy and
// corrupting wire, a Byzantine liar, a worker whose heartbeats flap
// and who then freezes, a 3×-load overload storm against a saturated
// admission pool, and a control plane killed and restarted at
// journaled cut points.
func Schedules() []Schedule {
	return []Schedule{
		{
			Name: "journal-torn",
			Failpoints: map[string]failpoint.Config{
				"journal.append.write": {Kind: failpoint.KindShortWrite, Times: 3, Seed: 11},
				"journal.append.sync":  {Kind: failpoint.KindError, Times: 2, Seed: 12},
			},
		},
		{
			Name: "crash-commit",
			Failpoints: map[string]failpoint.Config{
				"run.precommit.crash":  {Kind: failpoint.KindError, Times: 2, Seed: 21},
				"run.postcommit.crash": {Kind: failpoint.KindError, Times: 2, Seed: 22},
			},
		},
		{
			Name:          "stage-panic",
			MaxPTPRetries: 3,
			Failpoints: map[string]failpoint.Config{
				// Times < MaxPTPRetries: even if every fire lands on one
				// PTP, retry absorbs it without quarantine. (A concurrent
				// pile-up can still quarantine; RunCampaign restarts.)
				"run.stage.panic": {Kind: failpoint.KindPanic, Times: 2, Seed: 31},
			},
		},
		{
			Name:          "wire-chaos",
			Workers:       3,
			FaultyWorkers: 1,
			Failpoints: map[string]failpoint.Config{
				"dist.reply.drop":      {Kind: failpoint.KindDrop, Prob: 0.2, Seed: 41},
				"dist.reply.dup":       {Kind: failpoint.KindDuplicate, Prob: 0.2, Seed: 42},
				"dist.reply.reorder":   {Kind: failpoint.KindReorder, Prob: 0.3, Seed: 43},
				"dist.reply.delay":     {Kind: failpoint.KindDelay, Delay: 3 * time.Millisecond, Prob: 0.3, Seed: 44},
				"dist.transport.error": {Kind: failpoint.KindError, Prob: 0.15, Seed: 45},
				"dist.reply.corrupt":   {Kind: failpoint.KindCorrupt, Prob: 0.15, Seed: 46, Bit: -1},
			},
		},
		{
			Name:             "byzantine",
			Workers:          4,
			FaultyWorkers:    1,
			VerifyFraction:   1,
			ExpectQuarantine: true,
			Failpoints: map[string]failpoint.Config{
				"dist.reply.byzantine": {Kind: failpoint.KindCorrupt, Prob: 1, Seed: 51},
			},
		},
		{
			Name:          "heartbeat-flap",
			Workers:       2,
			FaultyWorkers: 1,
			Failpoints: map[string]failpoint.Config{
				"dist.ping.error": {Kind: failpoint.KindError, Times: 4, Seed: 61},
				// The worker freezes on its fourth shard for good: only
				// the heartbeat's death declaration settles that shard.
				"dist.worker.kill": {Kind: failpoint.KindError, After: 3, Times: 1, Seed: 62},
			},
		},
		{
			Name:          "overload",
			Workers:       3,
			FaultyWorkers: 1,
			Overload:      true,
			Failpoints: map[string]failpoint.Config{
				// After: 1 — the round's own saturating hold evaluates the
				// site first and must pass; the injected shed then lands on
				// a real campaign's admission check, which must retry it.
				"overload.admit.shed": {Kind: failpoint.KindError, After: 1, Times: 1, Seed: 71},
				// A sluggish admission decision on the first few campaigns
				// must not change any outcome.
				"overload.admit.delay": {Kind: failpoint.KindDelay, Delay: 2 * time.Millisecond, Times: 8, Seed: 72},
				// Brownout worker: its first three shards bounce with
				// 429-equivalent busy replies (Delay doubles as the
				// Retry-After hint); the coordinator must reroute them
				// without charging failures or retry budget.
				"dist.reply.busy": {Kind: failpoint.KindError, Delay: time.Millisecond, Times: 3, Seed: 73},
			},
		},
		{
			Name:   "server",
			Server: true,
			Failpoints: map[string]failpoint.Config{
				// A failed queue-journal append is fail-stop: each fire
				// kills the control plane at a journaled cut point. Prob
				// spreads the two kills across the round's appends
				// (submits, leases, running and terminal records,
				// requeues).
				"server.journal.append": {Kind: failpoint.KindError, Prob: 0.05, Times: 2, Seed: 81},
				// One suppressed heartbeat renewal = lease loss = another
				// fail-stop kill, a few heartbeats in.
				"server.lease.expire": {Kind: failpoint.KindError, After: 2, Times: 1, Seed: 82},
				// One result-cache artifact is silently corrupted as
				// written; reads must detect it (checksum mismatch), log a
				// miss and re-simulate — never serve the rot.
				"server.cache.corrupt": {Kind: failpoint.KindCorrupt, Times: 1, Seed: 83},
			},
		},
	}
}
