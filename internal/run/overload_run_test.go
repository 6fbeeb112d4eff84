package run

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpustl/internal/core"
	"gpustl/internal/dist"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/journal"
	"gpustl/internal/obs"
	"gpustl/internal/overload"
)

// TestRunShedLeavesNoArtifact pins down the admission contract at the
// run layer: a shed campaign fails fast with ErrOverloaded and leaves
// no checkpoint directory, journal, or partial report behind.
func TestRunShedLeavesNoArtifact(t *testing.T) {
	lib, ms := testEnv(t)
	pool := overload.NewAdmission(overload.AdmissionOptions{Capacity: 1, MaxQueue: 0})
	hold, ok := pool.TryAcquire(context.Background(), 1)
	if !ok {
		t.Fatal("could not pre-occupy the pool")
	}
	ckDir := filepath.Join(t.TempDir(), "ck")
	rep, err := Run(context.Background(), gpu.DefaultConfig(), ms, lib,
		core.Options{Workers: 2}, Options{CheckpointDir: ckDir, Admission: pool})
	if !errors.Is(err, overload.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if !journal.IsTransient(err) {
		t.Fatalf("shed must classify as transient: %v", err)
	}
	if rep != nil {
		t.Fatalf("shed run returned a report: %+v", rep)
	}
	if _, serr := os.Stat(ckDir); !os.IsNotExist(serr) {
		t.Fatalf("shed run left an artifact at %s (stat err %v)", ckDir, serr)
	}

	// Freed pool: the identical Run is admitted and completes.
	hold()
	lib2, ms2 := testEnv(t)
	rep, err = Run(context.Background(), gpu.DefaultConfig(), ms2, lib2,
		core.Options{Workers: 2}, Options{CheckpointDir: ckDir, Admission: pool})
	if err != nil {
		t.Fatalf("admitted run failed: %v", err)
	}
	if len(rep.Outcomes) != 3 {
		t.Fatalf("outcomes: %d", len(rep.Outcomes))
	}
}

// TestRunDeadlineBehavesLikeCancel pins down Options.Deadline: an
// already-hopeless deadline stops the run exactly like a canceled
// context — finished PTPs journaled, nothing quarantined — and a
// deadline-free resume completes the rest.
func TestRunDeadlineBehavesLikeCancel(t *testing.T) {
	cfg := gpu.DefaultConfig()
	ckDir := t.TempDir()
	lib, ms := testEnv(t)
	_, err := Run(context.Background(), cfg, ms, lib, core.Options{Workers: 2},
		Options{CheckpointDir: ckDir, Deadline: time.Nanosecond})
	if err == nil {
		t.Fatal("nanosecond deadline cannot complete three PTPs")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded in chain, got %v", err)
	}
	if !journal.IsTransient(err) {
		t.Fatalf("deadline must classify as transient: %v", err)
	}

	lib2, ms2 := testEnv(t)
	rep, err := Run(context.Background(), cfg, ms2, lib2, core.Options{Workers: 2},
		Options{CheckpointDir: ckDir})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if len(rep.Outcomes) != 3 || rep.Quarantined != 0 {
		t.Fatalf("resume outcomes %d, quarantined %d", len(rep.Outcomes), rep.Quarantined)
	}

	// The deadline-free rendering matches an uninterrupted run's.
	lib3, ms3 := testEnv(t)
	straight, err := Run(context.Background(), cfg, ms3, lib3, core.Options{Workers: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if render(t, rep) != render(t, straight) {
		t.Fatal("resumed render differs from uninterrupted render")
	}
}

// overloadedSim is a FaultSimulator that sheds every simulation with
// ErrOverloaded, as a saturated distributed coordinator would.
type overloadedSim struct{}

func (overloadedSim) SimulateCampaign(ctx context.Context, camp *fault.Campaign,
	stream []fault.TimedPattern, opt fault.SimOptions) (*fault.Report, error) {
	return nil, fmt.Errorf("dist: campaign run shed by admission control: %w", overload.ErrOverloaded)
}

// TestOverloadAbortsWithoutQuarantine pins down the FailOverload
// policy: when overload protection sheds a PTP's simulations past its
// retries, the campaign aborts — transient, resumable — instead of
// journaling a quarantine that would poison a healthy PTP.
func TestOverloadAbortsWithoutQuarantine(t *testing.T) {
	lib, ms := testEnv(t)
	reg := obs.NewRegistry()
	ckDir := t.TempDir()
	rep, err := Run(context.Background(), gpu.DefaultConfig(), ms, lib,
		core.Options{Workers: 2, Simulator: overloadedSim{}},
		Options{CheckpointDir: ckDir, MaxPTPRetries: 2, Metrics: reg})
	if err == nil {
		t.Fatal("overloaded simulator must abort the campaign")
	}
	if !errors.Is(err, overload.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded in chain, got %v", err)
	}
	if !strings.Contains(err.Error(), "resume retries it") {
		t.Fatalf("error does not promise a resumable retry: %v", err)
	}
	if !journal.IsTransient(err) {
		t.Fatalf("overload abort must classify as transient: %v", err)
	}
	if rep.Quarantined != 0 {
		t.Fatalf("overload journaled a quarantine: %+v", rep)
	}
	for _, o := range rep.Outcomes {
		if o.Status == StatusQuarantined {
			t.Fatalf("quarantined outcome under overload: %+v", o)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["gpustl_run_overload_aborts_total"] != 1 {
		t.Fatalf("abort counter = %d, want 1", snap.Counters["gpustl_run_overload_aborts_total"])
	}
	if snap.Counters["gpustl_run_quarantined_total"] != 0 {
		t.Fatal("quarantine counter moved under overload")
	}

	// The journal holds no record of the shed PTP: a healthy resume
	// redoes it from scratch and completes the whole library.
	lib2, ms2 := testEnv(t)
	rep2, err := Run(context.Background(), gpu.DefaultConfig(), ms2, lib2,
		core.Options{Workers: 2}, Options{CheckpointDir: ckDir})
	if err != nil {
		t.Fatalf("resume after overload failed: %v", err)
	}
	if len(rep2.Outcomes) != 3 || rep2.Quarantined != 0 {
		t.Fatalf("resume outcomes %d, quarantined %d", len(rep2.Outcomes), rep2.Quarantined)
	}
}

// brokenWorker is a dist worker that answers pings but fails every
// shard it is sent.
type brokenWorker struct{ dist.Transport }

func (brokenWorker) Simulate(context.Context, *dist.ShardRequest) (*dist.ShardResult, error) {
	return nil, errors.New("injected worker failure")
}

// TestRetryBudgetAbortsDistCampaign drives Run through a real
// dist.Coordinator whose workers always fail. The coordinator's retry
// budget runs dry, the simulation fails as overloaded, and the campaign
// aborts with nothing journaled for the PTP — not a permanent revert —
// so a resume on a healthy fleet redoes it and completes the library.
func TestRetryBudgetAbortsDistCampaign(t *testing.T) {
	lib, ms := testEnv(t)
	reg := obs.NewRegistry()
	ckDir := t.TempDir()
	co, err := dist.New(dist.Options{
		RetryBudget:       0.001, // effectively: just the banked burst
		RetryBurst:        1,
		HedgeFraction:     -1,
		BaseBackoff:       time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
	}, brokenWorker{dist.NewLocal("w1")}, brokenWorker{dist.NewLocal("w2")})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	rep, err := Run(context.Background(), gpu.DefaultConfig(), ms, lib,
		core.Options{Workers: 2, Simulator: co},
		Options{CheckpointDir: ckDir, Metrics: reg})
	if !errors.Is(err, overload.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded in chain, got %v", err)
	}
	for _, o := range rep.Outcomes {
		if o.Name == lib.PTPs[0].Name {
			t.Fatalf("budget-exhausted PTP was journaled: %+v", o)
		}
	}
	if n := reg.Snapshot().Counters["gpustl_run_overload_aborts_total"]; n != 1 {
		t.Fatalf("abort counter = %d, want 1", n)
	}

	lib2, ms2 := testEnv(t)
	rep2, err := Run(context.Background(), gpu.DefaultConfig(), ms2, lib2,
		core.Options{Workers: 2}, Options{CheckpointDir: ckDir})
	if err != nil {
		t.Fatalf("resume after the budget abort failed: %v", err)
	}
	if len(rep2.Outcomes) != 3 || rep2.Quarantined != 0 {
		t.Fatalf("resume outcomes %d, quarantined %d", len(rep2.Outcomes), rep2.Quarantined)
	}
	for _, o := range rep2.Outcomes {
		if o.Status == StatusRevertedError {
			t.Fatalf("resumed PTP still reverted: %+v", o)
		}
	}
}

// TestFailKindOf covers the classification helper.
func TestFailKindOf(t *testing.T) {
	if k := failKindOf(errors.New("plain")); k != FailError {
		t.Fatalf("plain error → %v", k)
	}
	se := &StageError{Kind: FailOverload, Err: overload.ErrOverloaded}
	if k := failKindOf(fmt.Errorf("wrap: %w", se)); k != FailOverload {
		t.Fatalf("wrapped stage error → %v", k)
	}
	if !se.Retryable() {
		t.Fatal("FailOverload must be retryable")
	}
}
