package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gpustl/internal/core"
	"gpustl/internal/dist"
	"gpustl/internal/failpoint"
	"gpustl/internal/journal"
	"gpustl/internal/obs"
	"gpustl/internal/overload"
	"gpustl/internal/run"
)

// Overload-round tuning: the admission pool admits exactly one campaign
// at a time with a one-deep wait queue, and the distributed retry
// budget is deliberately tight so the budget-inequality assertion below
// has teeth.
const (
	overloadMaxQueue   = 1
	overloadRetryRatio = 0.1
	overloadRetryBurst = 4
)

// RunOverloadRound drives one round of the overload scenario: three
// campaigns offered against an admission pool sized for exactly one,
// under brownout workers (dist.reply.busy) and injected admission
// faults (overload.admit.shed / overload.admit.delay). The round
// asserts the whole overload contract:
//
//   - deterministic shed: with the pool saturated and its queue full, a
//     third offered campaign is refused fast with ErrOverloaded and
//     leaves no artifact — not even its checkpoint directory;
//   - shed is transient: a refused campaign retried once capacity frees
//     completes normally;
//   - admitted campaigns are byte-identical to the fault-free
//     reference, brownouts and injected sheds notwithstanding;
//   - retries stay within budget: over the round's dedicated metrics
//     registry, retries_total ≤ ratio×dispatches_total + burst×coordinators.
func (h *Harness) RunOverloadRound(ctx context.Context, s Schedule, res *Result) error {
	ref, err := h.Reference(ctx)
	if err != nil {
		return err
	}
	lib, _, err := h.env()
	if err != nil {
		return err
	}
	var campaignCost int64
	for _, p := range lib.PTPs {
		campaignCost += int64(len(p.Prog))
	}

	reg := obs.NewRegistry() // per-round: the budget inequality needs clean counters
	pool := overload.NewAdmission(overload.AdmissionOptions{
		Capacity: campaignCost,
		MaxQueue: overloadMaxQueue,
		Metrics:  reg,
		Name:     "campaign",
	})
	var coordinators atomic.Uint64

	dirs := make([]string, 3)
	for i := range dirs {
		d, err := os.MkdirTemp("", fmt.Sprintf("chaossoak-overload-c%d-*", i))
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dirs[i] = d
	}
	// run.Run creates CheckpointDir lazily *after* admission; hand each
	// campaign a path that does not exist yet so "no artifact on shed"
	// is observable.
	for i, d := range dirs {
		dirs[i] = d + "/ck"
	}

	// Saturate the pool as a long-running admitted campaign would, then
	// queue campaign B behind it. Both states are deterministic: B
	// cannot be admitted while the hold is in place.
	// The hold is the round's first evaluation of overload.admit.shed,
	// which its After: 1 skip lets through.
	hold, ok := pool.TryAcquire(ctx, campaignCost)
	if !ok {
		return fmt.Errorf("chaos: %s: fresh pool refused the hold", s.Name)
	}
	var wg sync.WaitGroup
	outcomes := make([]offerOutcome, 3)
	offer := func(idx int) {
		defer wg.Done()
		outcomes[idx] = h.offerCampaign(ctx, s, pool, dirs[idx], reg, &coordinators)
	}
	wg.Add(1)
	go offer(1)
	if err := waitFor(ctx, 10*time.Second, func() bool { return pool.QueueLen() >= 1 }); err != nil {
		return fmt.Errorf("chaos: %s: campaign B never queued: %w", s.Name, err)
	}

	// Queue full + pool saturated: offering campaign C now MUST shed,
	// fast, with ErrOverloaded, leaving nothing on disk.
	start := time.Now()
	_, cerr := h.runOverloadCampaignOnce(ctx, s, pool, dirs[2], reg, &coordinators)
	shedLatency := time.Since(start)
	if !errors.Is(cerr, overload.ErrOverloaded) {
		return fmt.Errorf("chaos: %s: saturated pool did not shed campaign C: %v", s.Name, cerr)
	}
	if !journal.IsTransient(cerr) {
		return fmt.Errorf("chaos: %s: shed did not classify as transient: %v", s.Name, cerr)
	}
	if shedLatency > 5*time.Second {
		return fmt.Errorf("chaos: %s: shed took %v — not a fast refusal", s.Name, shedLatency)
	}
	if _, serr := os.Stat(dirs[2]); !os.IsNotExist(serr) {
		return fmt.Errorf("chaos: %s: shed campaign C left an artifact at %s", s.Name, dirs[2])
	}
	res.Shed++

	// Free the hold: B is granted FIFO; A and C (retried — the "come
	// back later" an overloaded service owes its clients) now contend
	// for the remaining capacity. All three must complete.
	hold()
	wg.Add(2)
	go offer(0)
	go offer(2)
	wg.Wait()

	for i, o := range outcomes {
		if o.err != nil {
			return fmt.Errorf("chaos: %s: campaign %c: %w", s.Name, 'A'+i, o.err)
		}
		if !bytes.Equal(o.got, ref) {
			return fmt.Errorf("chaos: %s: campaign %c produced %d bytes differing from the %d-byte reference",
				s.Name, 'A'+i, len(o.got), len(ref))
		}
		res.Admitted++
		res.Shed += o.shed
		res.Crashes += o.crashes
	}

	// The budget inequality, over this round's dedicated registry:
	// every coordinator banks overloadRetryBurst tokens and earns
	// overloadRetryRatio per dispatch, so total retries can never
	// exceed ratio×dispatches + burst×coordinators. Busy bounces and
	// injected sheds must not have charged it.
	snap := reg.Snapshot()
	retries := float64(snap.Counters["gpustl_dist_retries_total"])
	dispatches := float64(snap.Counters["gpustl_dist_dispatches_total"])
	bound := overloadRetryRatio*dispatches + overloadRetryBurst*float64(coordinators.Load())
	if retries > bound {
		return fmt.Errorf("chaos: %s: retries %v exceed budget bound %v (dispatches %v, coordinators %d)",
			s.Name, retries, bound, dispatches, coordinators.Load())
	}
	if shed := snap.Counters[`gpustl_overload_shed_total{pool="campaign",reason="queue_full"}`]; shed < 1 {
		return fmt.Errorf("chaos: %s: forced shed not visible in gpustl_overload_shed_total", s.Name)
	}
	// The brownout worker (dist.reply.busy, Times-bounded) must have
	// bounced at least one shard — and the round still converged with
	// zero degradation, proving busy replies reroute without charge.
	if busy := snap.Counters["gpustl_dist_busy_replies_total"]; busy < 1 {
		return fmt.Errorf("chaos: %s: brownout worker never bounced a shard", s.Name)
	}
	return nil
}

type offerOutcome struct {
	got     []byte
	shed    int
	crashes int
	err     error
}

// offerCampaign runs one campaign to completion against the shared
// admission pool, absorbing overload refusals (retry after a short
// backoff — capacity is about to free) and injected crashes (resume
// from the checkpoint) up to the harness crash budget.
func (h *Harness) offerCampaign(ctx context.Context, s Schedule, pool *overload.Admission,
	dir string, reg *obs.Registry, coordinators *atomic.Uint64) offerOutcome {

	// Sheds are expected to repeat while another campaign holds the pool
	// (retry cadence × campaign duration), so they get their own generous
	// cap; only crashes count against the harness crash budget.
	const maxShedRetries = 2000
	var out offerOutcome
	for {
		if err := ctx.Err(); err != nil {
			out.err = err
			return out
		}
		rep, err := h.runOverloadCampaignOnce(ctx, s, pool, dir, reg, coordinators)
		switch {
		case err == nil:
			if degraded(rep) {
				// Nothing in the overload schedule may degrade a
				// campaign: busy bounces reroute and sheds abort.
				out.err = fmt.Errorf("chaos: %s: overload round degraded a campaign", s.Name)
				return out
			}
			out.got, out.err = stlBytes(rep.Compacted)
			return out
		case errors.Is(err, overload.ErrOverloaded):
			if !journal.IsTransient(err) {
				out.err = fmt.Errorf("chaos: %s: shed not transient: %w", s.Name, err)
				return out
			}
			out.shed++
			if out.shed > maxShedRetries {
				out.err = fmt.Errorf("chaos: %s: still shed after %d retries", s.Name, out.shed)
				return out
			}
			select { // capacity frees when the current holder completes
			case <-time.After(25 * time.Millisecond):
			case <-ctx.Done():
				out.err = ctx.Err()
				return out
			}
		default:
			out.crashes++ // injected journal/commit crash: resume
			if out.crashes > h.MaxCrashes {
				out.err = fmt.Errorf("chaos: %s: campaign still failing after %d crashes: %w",
					s.Name, out.crashes, err)
				return out
			}
		}
	}
}

// runOverloadCampaignOnce is one run.Run attempt of the overload
// scenario: brownout-capable workers, tight retry budget, a 25ms
// open-worker cool-down (MaxBackoff), the shared admission pool gating
// the campaign.
func (h *Harness) runOverloadCampaignOnce(ctx context.Context, s Schedule,
	pool *overload.Admission, dir string, reg *obs.Registry,
	coordinators *atomic.Uint64) (*run.Report, error) {

	lib, ms, err := h.env()
	if err != nil {
		return nil, err
	}
	transports := make([]dist.Transport, s.Workers)
	for i := range transports {
		t := dist.Transport(dist.NewLocal(fmt.Sprintf("%s-w%d", s.Name, i)))
		if i < s.FaultyWorkers {
			t = dist.WithFailpoints(t, failpoint.FromContext(ctx))
		}
		transports[i] = t
	}
	co, err := dist.New(dist.Options{
		MaxAttempts:       8,
		BaseBackoff:       2 * time.Millisecond,
		MaxBackoff:        25 * time.Millisecond,
		HeartbeatInterval: 15 * time.Millisecond,
		HeartbeatMisses:   2,
		Seed:              h.Seed,
		VerifyFraction:    s.VerifyFraction,
		RetryBudget:       overloadRetryRatio,
		RetryBurst:        overloadRetryBurst,
		Metrics:           reg,
	}, transports...)
	if err != nil {
		return nil, err
	}
	defer co.Close()
	coordinators.Add(1)
	return run.Run(ctx, h.Cfg, ms, lib,
		core.Options{Workers: 4, Simulator: co},
		run.Options{
			CheckpointDir: dir,
			FCTolerance:   5,
			MaxPTPRetries: s.MaxPTPRetries,
			Admission:     pool,
			Metrics:       h.Metrics,
		})
}

// waitFor polls cond (1ms cadence) until it holds, ctx dies, or the
// bound elapses.
func waitFor(ctx context.Context, bound time.Duration, cond func() bool) error {
	deadline := time.Now().Add(bound)
	for !cond() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not reached within %v", bound)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
