package chaos

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpustl/internal/core"
	"gpustl/internal/failpoint"
	"gpustl/internal/obs"
	"gpustl/internal/run"
)

// TestSchedulesAreRegistered: every canonical schedule must arm
// something, and only registered failpoint names, so each builds a set.
func TestSchedulesAreRegistered(t *testing.T) {
	for _, s := range Schedules() {
		if len(s.Failpoints) == 0 {
			t.Errorf("schedule %s arms nothing", s.Name)
		}
		if _, err := failpoint.NewSet(s.Failpoints); err != nil {
			t.Errorf("schedule %s: %v", s.Name, err)
		}
	}
}

// TestSoakEachSchedule runs every canonical schedule for two campaigns,
// one schedule at a time, so a failure names its scenario directly.
func TestSoakEachSchedule(t *testing.T) {
	for _, s := range Schedules() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			h := NewHarness(1)
			h.Logf = t.Logf
			h.Metrics = obs.NewRegistry()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			res := h.SoakSchedule(ctx, s, 2)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if res.Campaigns != 2 {
				t.Fatalf("completed %d campaigns, want 2", res.Campaigns)
			}
			if s.ExpectQuarantine {
				if res.Banned == 0 {
					t.Fatal("byzantine schedule never banned a worker")
				}
				snap := h.Metrics.Snapshot()
				if snap.Counters["gpustl_dist_quarantined_workers_total"] == 0 {
					t.Error("quarantine not visible in metrics")
				}
				if snap.Counters["gpustl_dist_byzantine_replies_total"] == 0 {
					t.Error("byzantine replies not visible in metrics")
				}
			}
		})
	}
}

// TestSoakConcurrentSchedules is the in-tree slice of `make chaos`: all
// canonical schedules at once — journal faults, commit crashes, stage
// panics and three worker-fleet scenarios firing concurrently — one
// campaign each, every output byte-identical to the reference.
func TestSoakConcurrentSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in -short mode")
	}
	h := NewHarness(2)
	h.Logf = t.Logf
	h.Metrics = obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results, err := h.Soak(ctx, Schedules(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Campaigns != 1 {
			t.Errorf("%s: %d campaigns, want 1", r.Schedule, r.Campaigns)
		}
	}
}

// TestEquivalenceMatrix is the chaos-seeded equivalence matrix from the
// issue: journal/commit crash-points × dist fault schedules × worker
// counts, every cell asserting the compacted STL byte-matches the
// fault-free reference.
func TestEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix: skipped in -short mode")
	}

	crashPoints := []struct {
		name string
		fps  map[string]failpoint.Config
	}{
		{"clean", nil},
		{"journal-short-write", map[string]failpoint.Config{
			"journal.append.write": {Kind: failpoint.KindShortWrite, Times: 2, Seed: 101},
		}},
		{"journal-sync-error", map[string]failpoint.Config{
			"journal.append.sync": {Kind: failpoint.KindError, Times: 1, Seed: 102},
		}},
		{"precommit-crash", map[string]failpoint.Config{
			"run.precommit.crash": {Kind: failpoint.KindError, Times: 2, Seed: 103},
		}},
		{"postcommit-crash", map[string]failpoint.Config{
			"run.postcommit.crash": {Kind: failpoint.KindError, Times: 2, Seed: 104},
		}},
		{"stage-panic", map[string]failpoint.Config{
			"run.stage.panic": {Kind: failpoint.KindPanic, Times: 2, Seed: 105},
		}},
	}
	distFaults := []struct {
		name    string
		fps     map[string]failpoint.Config
		workers []int
		verify  float64
		expectQ bool
		faultyW int
	}{
		{name: "local", workers: []int{0}},
		{name: "wire", workers: []int{2, 4}, faultyW: 1, fps: map[string]failpoint.Config{
			"dist.reply.drop":      {Kind: failpoint.KindDrop, Prob: 0.25, Seed: 201},
			"dist.reply.delay":     {Kind: failpoint.KindDelay, Delay: 2 * time.Millisecond, Prob: 0.25, Seed: 202},
			"dist.transport.error": {Kind: failpoint.KindError, Prob: 0.2, Seed: 203},
		}},
		{name: "byzantine", workers: []int{3, 4}, faultyW: 1, verify: 1, expectQ: true,
			fps: map[string]failpoint.Config{
				"dist.reply.byzantine": {Kind: failpoint.KindCorrupt, Prob: 1, Seed: 204},
			}},
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	h := NewHarness(3)
	for _, cp := range crashPoints {
		for _, df := range distFaults {
			for _, w := range df.workers {
				name := fmt.Sprintf("%s/%s/workers=%d", cp.name, df.name, w)
				t.Run(name, func(t *testing.T) {
					fps := map[string]failpoint.Config{}
					for k, v := range cp.fps {
						fps[k] = v
					}
					for k, v := range df.fps {
						fps[k] = v
					}
					s := Schedule{
						Name:             name,
						Failpoints:       fps,
						Workers:          w,
						FaultyWorkers:    df.faultyW,
						VerifyFraction:   df.verify,
						ExpectQuarantine: df.expectQ,
						MaxPTPRetries:    3,
					}
					res := h.SoakSchedule(ctx, s, 1)
					if res.Err != nil {
						t.Fatal(res.Err)
					}
					if res.Campaigns != 1 {
						t.Fatalf("completed %d campaigns, want 1", res.Campaigns)
					}
				})
			}
		}
	}
}

// TestRunCampaignDetectsRealDivergence: a harness whose reference bytes
// are wrong must fail the campaign, not absorb it — the byte comparison
// is the assertion everything else hangs on.
func TestRunCampaignDetectsRealDivergence(t *testing.T) {
	h := NewHarness(4)
	if _, err := h.Reference(context.Background()); err != nil {
		t.Fatal(err)
	}
	h.ref = append([]byte("corrupted"), h.ref...)
	var res Result
	err := h.RunCampaign(context.Background(), Schedule{Name: "divergence"}, &res)
	if err == nil {
		t.Fatal("campaign matched a corrupted reference")
	}
}

// TestOverloadRoundCounts pins down the overload round's bookkeeping:
// one round admits and completes all three campaigns, and sheds at
// least twice — the deterministic queue-full refusal of campaign C plus
// the injected overload.admit.shed that lands on campaign B.
func TestOverloadRoundCounts(t *testing.T) {
	var overloadSched *Schedule
	for _, s := range Schedules() {
		if s.Overload {
			s := s
			overloadSched = &s
			break
		}
	}
	if overloadSched == nil {
		t.Fatal("no overload schedule in Schedules()")
	}
	h := NewHarness(99)
	res := h.SoakSchedule(context.Background(), *overloadSched, 1)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Campaigns != 1 {
		t.Fatalf("rounds = %d, want 1", res.Campaigns)
	}
	if res.Admitted != 3 {
		t.Fatalf("admitted = %d, want 3 (every offered campaign must complete)", res.Admitted)
	}
	if res.Shed < 2 {
		t.Fatalf("shed = %d, want >= 2 (forced queue-full + injected)", res.Shed)
	}
	if res.Restarts != 0 {
		t.Fatalf("restarts = %d; overload must never degrade a campaign", res.Restarts)
	}
}

// TestScheduleSpecRoundTrips: every canonical schedule's printed repro
// spec must re-arm the same configs (including the per-iteration seed
// offset) through the same ParseSet path the CLIs use.
func TestScheduleSpecRoundTrips(t *testing.T) {
	for _, s := range Schedules() {
		for _, iter := range []int{0, 3} {
			spec := s.Spec(iter)
			set, err := failpoint.ParseSet(spec)
			if err != nil {
				t.Fatalf("schedule %s iter %d: spec %q does not re-arm: %v", s.Name, iter, spec, err)
			}
			if got := set.Names(); len(got) != len(s.Failpoints) {
				t.Fatalf("schedule %s iter %d: spec %q arms %v", s.Name, iter, spec, got)
			}
			for name, cfg := range s.Failpoints {
				want := cfg
				want.Seed += int64(iter) * 7919
				entry := name + "=" + want.Spec()
				if !strings.Contains(spec, entry) {
					t.Fatalf("schedule %s iter %d: spec %q missing entry %q", s.Name, iter, spec, entry)
				}
			}
		}
	}
}

// TestSoakOverlappingSchedules: two schedules arming the same site with
// different configs run concurrently, each campaign under its own set.
func TestSoakOverlappingSchedules(t *testing.T) {
	h := NewHarness(6)
	h.Logf = t.Logf
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results, err := h.Soak(ctx, []Schedule{
		{Name: "postcommit-twice", Failpoints: map[string]failpoint.Config{
			"run.postcommit.crash": {Kind: failpoint.KindError, Times: 2, Seed: 1},
		}},
		{Name: "postcommit-late", Failpoints: map[string]failpoint.Config{
			"run.postcommit.crash": {Kind: failpoint.KindError, After: 1, Times: 1, Seed: 2},
		}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Campaigns != 1 {
			t.Errorf("%s: %d campaigns, want 1", r.Schedule, r.Campaigns)
		}
		if r.Crashes == 0 {
			t.Errorf("%s: its own postcommit crash never fired", r.Schedule)
		}
	}
}

// TestConcurrentRunsDoNotShareFailpoints: campaign A arms
// run.postcommit.crash with unlimited fires and crashes after its first
// commit, over and over; campaign B runs alongside it with no set. B
// must never see A's faults: every round finishes cleanly and
// byte-identical to the reference.
func TestConcurrentRunsDoNotShareFailpoints(t *testing.T) {
	h := NewHarness(7)
	ref, err := h.Reference(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	set, err := failpoint.NewSet(map[string]failpoint.Config{
		"run.postcommit.crash": {Kind: failpoint.KindError},
	})
	if err != nil {
		t.Fatal(err)
	}
	actx, stopA := context.WithCancel(failpoint.WithSet(context.Background(), set))
	var aCrashes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for actx.Err() == nil {
			if _, err := h.campaign(actx, t.TempDir()); err != nil && actx.Err() == nil {
				aCrashes.Add(1)
			}
		}
	}()
	defer func() { stopA(); wg.Wait() }()

	for i := 0; i < 20; i++ {
		got, err := h.campaign(context.Background(), t.TempDir())
		if err != nil {
			t.Fatalf("round %d: campaign B failed: %v", i, err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("round %d: campaign B produced %d bytes differing from the %d-byte reference",
				i, len(got), len(ref))
		}
	}
	stopA()
	wg.Wait()
	if aCrashes.Load() == 0 {
		t.Fatal("campaign A never crashed: its set was not armed")
	}
}

// campaign runs the harness workload once, checkpointed to dir (so the
// commit-bracket failpoints are live), and returns the compacted bytes.
func (h *Harness) campaign(ctx context.Context, dir string) ([]byte, error) {
	lib, ms, err := h.env()
	if err != nil {
		return nil, err
	}
	rep, err := run.Run(ctx, h.Cfg, ms, lib, core.Options{Workers: 2},
		run.Options{CheckpointDir: dir, FCTolerance: 5})
	if err != nil {
		return nil, err
	}
	return stlBytes(rep.Compacted)
}
