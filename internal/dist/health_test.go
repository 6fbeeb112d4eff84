package dist

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"gpustl/internal/fault"
)

// TestWorkerHealthTransitions drives every health state through every
// event. Fixtures sit one failure short of tripping, with a timed hold
// ending at t0+2s (past the 1s bounce hold), so each row shows the
// edge it is about.
func TestWorkerHealthTransitions(t *testing.T) {
	t0 := time.Unix(1000, 0)
	const cool, hold = 10 * time.Second, time.Second
	fixture := func(s healthState, probing bool) workerHealth {
		h := workerHealth{state: s, fails: breakerThreshold - 1, opens: 1, probeSeq: 7,
			probing: probing, seed: 1, coolFor: cool, holdFor: hold}
		if s == healthOpen || s == healthDraining {
			h.until = t0.Add(2 * time.Second)
		}
		return h
	}
	fixtures := map[string]workerHealth{
		"up":       fixture(healthUp, false),
		"down":     fixture(healthDown, false),
		"open":     fixture(healthOpen, false),
		"probe":    fixture(healthProbe, false),
		"probing":  fixture(healthProbe, true),
		"draining": fixture(healthDraining, false),
		"banned":   fixture(healthBanned, false),
	}
	type input struct {
		e   healthEvent
		now time.Time
	}
	events := map[string]input{
		"success":       {healthEvent{kind: hSuccess, probe: 7}, t0},
		"failure":       {healthEvent{kind: hFailure, probe: 7}, t0},
		"cancel":        {healthEvent{kind: hCancel, probe: 7}, t0},
		"bounce":        {healthEvent{kind: hBounce, after: 3 * time.Second, probe: 7}, t0},
		"bounce-nohint": {healthEvent{kind: hBounce, probe: 7}, t0},
		"stale-success": {healthEvent{kind: hSuccess, probe: 6}, t0},
		"stale-failure": {healthEvent{kind: hFailure, probe: 6}, t0},
		"stale-cancel":  {healthEvent{kind: hCancel, probe: 6}, t0},
		"stale-bounce":  {healthEvent{kind: hBounce, probe: 6}, t0},
		"ping-lost":     {healthEvent{kind: hPingLost}, t0},
		"ping-ok":       {healthEvent{kind: hPingOK}, t0},
		"timer-early":   {healthEvent{kind: hTimer}, t0},
		"timer-due":     {healthEvent{kind: hTimer}, t0.Add(2 * time.Second)},
		"claim":         {healthEvent{kind: hClaim}, t0},
		"outvoted":      {healthEvent{kind: hOutvoted}, t0},
		"new-run":       {healthEvent{kind: hNewRun}, t0},
	}

	// tripped marks a row whose worker opens for a jittered cool-down
	// from t0; the test checks the cool-down range, then the fields.
	tripped := func(h *workerHealth) {
		h.state, h.fails, h.probing, h.opens = healthOpen, 0, false, h.opens+1
	}
	to := func(s healthState) func(*workerHealth) {
		return func(h *workerHealth) { h.state = s }
	}
	banned := func(h *workerHealth) { h.state, h.probing = healthBanned, false }
	down := func(h *workerHealth) { h.state, h.probing = healthDown, false }
	revived := func(h *workerHealth) { h.state, h.fails = healthUp, 0 }
	resetFails := func(h *workerHealth) { h.fails = 0 }
	drainUntil := func(d time.Duration) func(*workerHealth) {
		return func(h *workerHealth) { h.state, h.until = healthDraining, t0.Add(d) }
	}
	// changes[from][event] edits the fixture into the expected result;
	// every (state, event) pair not listed must leave the fixture as it
	// was.
	changes := map[string]map[string]func(*workerHealth){
		"up": {
			"success":       resetFails,
			"failure":       tripped,
			"bounce":        drainUntil(3 * time.Second),
			"bounce-nohint": drainUntil(hold),
			"stale-success": resetFails,
			"stale-failure": tripped,
			"stale-bounce":  drainUntil(hold),
			"ping-lost":     down,
			"outvoted":      banned,
		},
		"down": {
			"ping-ok":  revived,
			"outvoted": banned,
		},
		"open": {
			"ping-lost": down,
			"timer-due": to(healthProbe),
			"outvoted":  banned,
		},
		// A free probe slot: verdicts belong to no probe dispatch.
		"probe": {
			"ping-lost": down,
			"claim":     func(h *workerHealth) { h.probing, h.probeSeq = true, 8 },
			"outvoted":  banned,
		},
		// The probe dispatch (token 7) is out: only its verdict counts.
		"probing": {
			"success": func(h *workerHealth) { h.state, h.fails, h.probing = healthUp, 0, false },
			"failure": tripped,
			"cancel":  func(h *workerHealth) { h.probing = false },
			"bounce": func(h *workerHealth) {
				h.state, h.probing, h.until = healthOpen, false, t0.Add(3*time.Second)
			},
			"bounce-nohint": func(h *workerHealth) {
				h.state, h.probing, h.until = healthOpen, false, t0.Add(hold)
			},
			"ping-lost": down,
			"outvoted":  banned,
			"new-run":   func(h *workerHealth) { h.probing = false },
		},
		// A bounce ending no later than the current hold leaves it.
		"draining": {
			"success":       resetFails,
			"failure":       tripped,
			"bounce":        drainUntil(3 * time.Second),
			"stale-success": resetFails,
			"stale-failure": tripped,
			"ping-lost":     down,
			"timer-due":     to(healthUp),
			"outvoted":      banned,
		},
		"banned": {},
	}

	for from, fx := range fixtures {
		row, ok := changes[from]
		if !ok {
			t.Fatalf("no table row for fixture %s", from)
		}
		for name := range row {
			if _, ok := events[name]; !ok {
				t.Errorf("%s: table names unknown event %s", from, name)
			}
		}
		for name, in := range events {
			got, want := fx, fx
			got.step(in.e, in.now)
			if edit := row[name]; edit != nil {
				edit(&want)
			}
			if want.state == healthOpen && want.opens > fx.opens {
				lo, hi := in.now.Add(cool), in.now.Add(cool+cool/2)
				if got.until.Before(lo) || !got.until.Before(hi) {
					t.Errorf("%s × %s: cool-down ends %v, want in [%v, %v)", from, name, got.until, lo, hi)
				}
				want.until = got.until
			}
			if got != want {
				t.Errorf("%s × %s:\n got %+v\nwant %+v", from, name, got, want)
			}
			if got.eligible() != (got.state == healthUp || (got.state == healthProbe && !got.probing)) {
				t.Errorf("%s × %s: eligible() = %v in %s (probing %v)", from, name, got.eligible(), got.state, got.probing)
			}
		}
	}
	if len(changes) != len(fixtures) {
		t.Errorf("table has %d rows, want %d", len(changes), len(fixtures))
	}
	seen := map[healthEventKind]bool{}
	for _, in := range events {
		seen[in.e.kind] = true
	}
	for k := healthEventKind(0); k < numHealthEvents; k++ {
		if !seen[k] {
			t.Errorf("event kind %d has no column", k)
		}
	}

	// The breaker lifecycle end to end: trip, cool down, one probe,
	// recover; trip again, fail the probe, reopen.
	t.Run("lifecycle", func(t *testing.T) {
		h := newWorkerHealth(Options{Seed: 3, MaxBackoff: cool, BaseBackoff: hold}, "w")
		now := t0
		step := func(k healthEventKind) { h.step(healthEvent{kind: k, probe: h.probeSeq}, now) }
		for i := 0; i < breakerThreshold-1; i++ {
			step(hFailure)
		}
		if h.state != healthUp {
			t.Fatal("under threshold must stay up")
		}
		step(hSuccess) // resets the consecutive count
		for i := 0; i < breakerThreshold-1; i++ {
			step(hFailure)
		}
		if h.state != healthUp {
			t.Fatal("success must reset consecutive failures")
		}
		step(hFailure)
		if h.state != healthOpen || h.eligible() || h.opens != 1 {
			t.Fatalf("threshold'th consecutive failure must open: %+v", h)
		}
		now = h.until.Add(-time.Nanosecond)
		step(hTimer)
		if h.eligible() {
			t.Fatal("eligible before the cool-down elapsed")
		}
		now = h.until
		step(hTimer)
		if h.state != healthProbe || !h.eligible() {
			t.Fatalf("cool-down elapsed: want probe and eligible, got %+v", h)
		}
		step(hClaim)
		if h.eligible() {
			t.Fatal("a second dispatcher must be refused while the probe is out")
		}
		step(hSuccess)
		if h.state != healthUp || !h.eligible() {
			t.Fatal("successful probe must return the worker to up")
		}
		for i := 0; i < breakerThreshold; i++ {
			step(hFailure)
		}
		now = h.until
		step(hTimer)
		step(hClaim)
		step(hFailure)
		if h.state != healthOpen || h.opens != 3 {
			t.Fatalf("failed probe must reopen: %+v", h)
		}
	})

	// Same (seed, worker) ⇒ same probe schedule; different workers
	// (almost surely) jitter differently, always within [MaxBackoff,
	// 1.5×MaxBackoff).
	t.Run("jitter_deterministic", func(t *testing.T) {
		coolDown := func(seed int64, name string) time.Duration {
			h := newWorkerHealth(Options{Seed: seed, MaxBackoff: cool}, name)
			h.fails = breakerThreshold - 1
			h.step(healthEvent{kind: hFailure}, t0)
			return h.until.Sub(t0)
		}
		if coolDown(1, "a") != coolDown(1, "a") {
			t.Fatal("same seed and worker must give the same cool-down")
		}
		if coolDown(1, "a") == coolDown(1, "b") && coolDown(2, "a") == coolDown(3, "a") {
			t.Fatal("different seeds or workers should jitter differently")
		}
		for _, name := range []string{"a", "b", "c", "d"} {
			if d := coolDown(7, name); d < cool || d >= cool+cool/2 {
				t.Fatalf("jittered cool-down %v outside [%v, %v)", d, cool, cool+cool/2)
			}
		}
	})

	// The zero value is a healthy worker: up, eligible, never tripped.
	t.Run("zero_value", func(t *testing.T) {
		var h workerHealth
		for _, k := range []healthEventKind{hSuccess, hCancel, hClaim, hTimer, hPingOK, hNewRun} {
			h.step(healthEvent{kind: k}, t0)
			if h.state != healthUp || !h.eligible() || !h.live() || h.opens != 0 {
				t.Fatalf("after event kind %d: %+v", k, h)
			}
		}
	})
}

// FuzzWorkerHealth drives random event/time sequences through step the
// way the run loop does — dispatches claimed only while eligible,
// verdicts about dispatches actually in flight (or stale ones) — and
// checks the machine's invariants after every step.
func FuzzWorkerHealth(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 6, 90, 0, 7, 0, 0, 0, 0, 0})
	f.Add([]byte{7, 0, 0, 1, 0, 0, 4, 0, 0, 5, 0, 0, 6, 10, 3, 7, 0, 0, 2, 0, 0, 8, 0, 0})
	f.Add([]byte{3, 5, 200, 6, 255, 0, 9, 0, 0, 4, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newWorkerHealth(Options{Seed: 1, MaxBackoff: 50 * time.Millisecond,
			BaseBackoff: 5 * time.Millisecond}, "w")
		now := time.Unix(0, 0)
		var inflight []uint64 // probe tokens of dispatches in flight (0: not a probe)
		for i := 0; i+2 < len(data); i += 3 {
			kind := healthEventKind(data[i] % uint8(numHealthEvents))
			now = now.Add(time.Duration(data[i+1]) * time.Millisecond)
			e := healthEvent{kind: kind}
			switch kind {
			case hClaim:
				if !h.eligible() {
					continue // the run loop never dispatches to an ineligible worker
				}
			case hSuccess, hFailure, hCancel, hBounce:
				e.after = time.Duration(data[i+2]%64) * time.Millisecond
				if n := len(inflight); n > 0 {
					j := int(data[i+2]) % n
					e.probe = inflight[j]
					inflight = append(inflight[:j], inflight[j+1:]...)
				}
			case hNewRun:
				inflight = nil // a finished Run canceled everything it left
			}
			was, opens := h.state, h.opens
			h.step(e, now)
			if kind == hClaim {
				var tok uint64
				if h.state == healthProbe {
					tok = h.probeSeq
				}
				inflight = append(inflight, tok)
			}

			if was == healthBanned && h.state != healthBanned {
				t.Fatalf("step %d: banned left for %s on event kind %d", i/3, h.state, kind)
			}
			if h.opens < opens {
				t.Fatalf("step %d: opens fell %d -> %d", i/3, opens, h.opens)
			}
			if want := h.state == healthUp || (h.state == healthProbe && !h.probing); h.eligible() != want {
				t.Fatalf("step %d: eligible() = %v in %s (probing %v)", i/3, h.eligible(), h.state, h.probing)
			}
			if h.state == healthProbe {
				probes := 0
				for _, tok := range inflight {
					if tok != 0 && tok == h.probeSeq {
						probes++
					}
				}
				if probes > 1 || (h.probing && probes != 1) {
					t.Fatalf("step %d: %d probe dispatches in flight (probing %v)", i/3, probes, h.probing)
				}
			} else if h.probing {
				t.Fatalf("step %d: probe slot held in %s", i/3, h.state)
			}
		}
	})
}

// TestVerifyShardSettlesWhenVoterDies: a verify shard holding one vote
// whose only other candidate is declared dead must settle unverified,
// whichever path (reply, preemption, retry) observes the death. Parking
// it instead would leave nothing to wake it, and Run would hang until
// its caller's context ended.
func TestVerifyShardSettlesWhenVoterDies(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(58)), m.Lanes, 256)

	serial := newSPCampaign(t, m, 500, 89)
	wantRep := serialReport(t, serial, stream)

	dying := &hangTransport{name: "dying"}
	stop := time.AfterFunc(300*time.Millisecond, func() { dying.dead.Store(true) })
	defer stop.Stop()
	opt := fastOptions()
	opt.VerifyFraction = 1
	opt.HedgeFraction = -1
	co, err := New(opt, NewLocal("good"), dying)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	camp := newSPCampaign(t, m, 500, 89)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var res *Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = co.Run(ctx, camp, stream, fault.SimOptions{})
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		cancel()
		<-done
		t.Fatalf("Run hung after the second voter died: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, res.Report, wantRep)
	st := res.Stats
	if st.WorkerDeaths != 1 {
		t.Fatalf("WorkerDeaths = %d, want 1: %+v", st.WorkerDeaths, st)
	}
	if st.VerifySkipped != st.Shards || st.VerifiedShards != 0 {
		t.Fatalf("want every one of %d shards settled unverified: %+v", st.Shards, st)
	}
}
