package dist

import (
	"fmt"
	"hash/fnv"
	"time"
)

// healthState is where a worker stands in the coordinator's one answer
// to "may this worker get work?". Only up, and probe with its slot
// free, are eligible. The transitions (workerHealth.step):
//
//	up        ─5th consecutive genuine failure→ open
//	up        ─429/503 bounce→ draining
//	draining  ─Retry-After (or BaseBackoff) elapses→ up
//	draining  ─5th consecutive genuine failure→ open
//	open      ─jittered cool-down elapses→ probe
//	probe     ─the one probe dispatch succeeds→ up
//	probe     ─it fails→ open (a fresh cool-down)
//	probe     ─it is bounced→ open for the bounce's hold, no open charged
//	probe     ─it is preempted→ probe, slot returned
//	any       ─heartbeat lost→ down ─good ping (in this or a later Run)→ up
//	any       ─reply outvoted→ banned (terminal, kept across Runs)
type healthState uint8

const (
	healthUp       healthState = iota // eligible; counts consecutive genuine failures
	healthDown                        // heartbeat lost; in-flight attempts preempted
	healthOpen                        // tripped: routed around until a jittered cool-down ends
	healthProbe                       // cool-down over: exactly one probe dispatch decides
	healthDraining                    // bounced with 429/503: ineligible until Retry-After
	healthBanned                      // outvoted by a checksum majority: terminal, across Runs
)

var healthStateNames = [...]string{"up", "down", "open", "probe", "draining", "banned"}

func (s healthState) String() string { return healthStateNames[s] }

// breakerThreshold consecutive genuine failures trip a worker open.
const breakerThreshold = 5

// healthEventKind is everything the run loop learns about a worker.
type healthEventKind uint8

const (
	hSuccess  healthEventKind = iota // a valid reply (duplicates included)
	hFailure                         // a genuine failure: error, timeout, rejected reply
	hCancel                          // preempted by the coordinator: no verdict
	hBounce                          // 429/503 backpressure: no verdict, hold off
	hPingLost                        // the heartbeat missed HeartbeatMisses pings
	hPingOK                          // the heartbeat heard from a down worker again
	hTimer                           // the timer armed for open/draining fired
	hClaim                           // a dispatch was sent to the worker
	hOutvoted                        // a valid reply lost a checksum vote
	hNewRun                          // a Run starts: the last run's probe dispatch is gone
	numHealthEvents
)

// healthEvent is one input to workerHealth.step.
type healthEvent struct {
	kind healthEventKind
	// after is a bounce's Retry-After hint (0: hold BaseBackoff).
	after time.Duration
	// probe is the probe token of the dispatch this verdict is about (0:
	// not a probe). In probe only the current probe's verdict counts, so
	// a stale reply can neither decide recovery nor free the slot.
	probe uint64
}

// workerHealth is one worker's health. The Coordinator keeps one per
// transport across Runs; the Run's loop is its only writer, always
// through step.
type workerHealth struct {
	state    healthState
	fails    int       // consecutive genuine failures (up, draining)
	until    time.Time // open, draining: when hTimer moves on
	probing  bool      // probe: the slot is claimed by probeSeq's dispatch
	probeSeq uint64    // token of the latest probe dispatch
	opens    uint64    // times tripped open, never decreasing

	seed    uint64        // jitter seed, from (Options.Seed, worker name)
	coolFor time.Duration // open cool-down before jitter (Options.MaxBackoff)
	holdFor time.Duration // bounce hold without a hint (Options.BaseBackoff)
}

func newWorkerHealth(opt Options, name string) workerHealth {
	// Seeding from the coordinator seed and the worker name makes a
	// restarted coordinator reproduce the same probe schedule while no
	// two workers probe in lockstep.
	h := fnv.New64a()
	fmt.Fprintf(h, "%d:%s", opt.Seed, name)
	return workerHealth{seed: h.Sum64(), coolFor: opt.MaxBackoff, holdFor: opt.BaseBackoff}
}

// eligible reports whether the worker may receive a dispatch now.
func (h *workerHealth) eligible() bool {
	return h.state == healthUp || (h.state == healthProbe && !h.probing)
}

// live reports whether the worker can ever serve again without the
// heartbeat reviving it: down and banned workers cannot.
func (h *workerHealth) live() bool {
	return h.state != healthDown && h.state != healthBanned
}

// step applies one event at time now. It is the only code that changes
// a workerHealth; it touches no clock, timer or I/O, so the transition
// table is testable with plain values.
func (h *workerHealth) step(e healthEvent, now time.Time) {
	if h.state == healthBanned {
		return
	}
	switch e.kind {
	case hOutvoted:
		h.state, h.probing = healthBanned, false
		return
	case hPingLost:
		h.state, h.probing = healthDown, false
		return
	case hNewRun:
		// The previous run canceled every dispatch it left in flight, a
		// claimed probe included.
		h.probing = false
		return
	}
	switch h.state {
	case healthUp, healthDraining:
		switch e.kind {
		case hSuccess:
			h.fails = 0
		case hFailure:
			if h.fails++; h.fails >= breakerThreshold {
				h.open(now)
			}
		case hBounce:
			if until := now.Add(h.hold(e)); h.state == healthUp || until.After(h.until) {
				h.state, h.until = healthDraining, until
			}
		case hTimer:
			if h.state == healthDraining && !now.Before(h.until) {
				h.state = healthUp
			}
		}
	case healthDown:
		if e.kind == hPingOK {
			h.state, h.fails = healthUp, 0
		}
	case healthOpen:
		if e.kind == hTimer && !now.Before(h.until) {
			h.state, h.probing = healthProbe, false
		}
	case healthProbe:
		if e.kind == hClaim {
			if !h.probing {
				h.probeSeq++
				h.probing = true
			}
			return
		}
		if !h.probing || e.probe != h.probeSeq {
			return // not the probe's verdict
		}
		switch e.kind {
		case hSuccess:
			h.state, h.fails, h.probing = healthUp, 0, false
		case hFailure:
			h.open(now)
		case hCancel:
			h.probing = false
		case hBounce:
			// Backpressure is no verdict: hold off like draining, then
			// probe again — without charging an open.
			h.state, h.probing, h.until = healthOpen, false, now.Add(h.hold(e))
		}
	}
}

// open trips the worker for a cool-down of coolFor plus up to 50%
// jitter, a pure function of (seed, opens).
func (h *workerHealth) open(now time.Time) {
	h.opens++
	h.state, h.fails, h.probing = healthOpen, 0, false
	h.until = now.Add(h.coolFor + time.Duration(jitter(h.seed, h.opens)*float64(h.coolFor)/2))
}

func (h *workerHealth) hold(e healthEvent) time.Duration {
	if e.after > 0 {
		return e.after
	}
	return h.holdFor
}

// jitter maps (seed, n) to [0, 1) with the splitmix64 finalizer.
func jitter(seed, n uint64) float64 {
	x := seed + n*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
