// Package failpoint is a deterministic fault-injection registry: named
// injection points compiled into the failure surfaces of the codebase
// (journal appends, shard transports, the resilient runner) that fire
// seeded, trigger-counted fault actions — error returns, latency
// spikes, panics, torn/short writes, bit-flip corruption, and drop/
// duplicate/reorder decisions for message-shaped call sites.
//
// Arming belongs to a run, not to the process. A Set, parsed from a
// -failpoints spec (ParseSet) or built from configs (NewSet), travels
// in the run's context.Context (WithSet), and each site evaluates
// against the set of the ctx it runs under. A site called without a
// ctx (a journal append, a cache write) uses the set of the ctx its
// owner was opened or started under. Two campaigns in one process
// therefore never see each other's faults.
//
// Design rules:
//
//   - Cheap when disarmed. The disarmed path is one ctx.Value lookup
//     and a nil check, with no lock and no allocation. Production
//     binaries keep the sites compiled in.
//   - Deterministic. Every armed site in a Set owns a rand.Rand seeded
//     from its Config, and its probability rolls and trigger counters
//     are advanced under a lock in evaluation order, so a given seed
//     and call sequence always yields the same fate sequence.
//   - Declared, not stringly created. Sites register their names with
//     New at package init; NewSet and ParseSet reject unknown names,
//     and Names feeds the lint test that insists every registered
//     failpoint is exercised by at least one test.
package failpoint

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Kind enumerates the fault actions a failpoint can inject. Sites
// interpret kinds through the helper they call: Inject handles Error/
// Delay/Panic, InjectWrite additionally applies ShortWrite and Corrupt
// to a payload, and message-shaped sites (the dist transport wrapper)
// read Drop/Duplicate/Reorder from Eval directly.
type Kind int

const (
	KindNone Kind = iota
	// KindError makes the site return Config.Err (or a generic
	// injected-error value).
	KindError
	// KindDelay makes the site sleep Config.Delay before proceeding.
	KindDelay
	// KindPanic makes the site panic with Config.Msg.
	KindPanic
	// KindShortWrite truncates the site's payload to Config.Bytes bytes
	// (default half) and surfaces Config.Err (default io.ErrShortWrite):
	// a torn write, with the prefix really written.
	KindShortWrite
	// KindCorrupt flips one bit of the site's payload (Config.Bit, or a
	// seeded-random bit) and lets the operation succeed: silent rot.
	KindCorrupt
	// KindDrop tells a message-shaped site to do the work but lose the
	// reply.
	KindDrop
	// KindDuplicate tells a message-shaped site to answer with a stale
	// copy of an earlier reply.
	KindDuplicate
	// KindReorder tells a message-shaped site to deliver replies out of
	// order (swap with a held earlier reply).
	KindReorder
)

var kindNames = map[Kind]string{
	KindNone: "none", KindError: "error", KindDelay: "delay",
	KindPanic: "panic", KindShortWrite: "short", KindCorrupt: "corrupt",
	KindDrop: "drop", KindDuplicate: "dup", KindReorder: "reorder",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Config arms one failpoint: the action to take and the trigger policy
// that decides which evaluations fire it.
type Config struct {
	Kind Kind
	// Err is the error KindError returns and KindShortWrite surfaces
	// (defaults: a generic injected error; io.ErrShortWrite).
	Err error
	// Delay is KindDelay's sleep.
	Delay time.Duration
	// Msg is KindPanic's panic message.
	Msg string
	// Bytes is KindShortWrite's kept-prefix length (<=0: half the
	// payload).
	Bytes int
	// Bit selects KindCorrupt's flipped bit; negative picks a seeded
	// random bit per firing.
	Bit int
	// Prob is the firing probability per evaluation (<=0 or >=1 fires
	// on every evaluation that passes After/Times).
	Prob float64
	// After skips the first After evaluations (trigger counting: "fire
	// from the Nth call on").
	After int
	// Times caps the number of firings (0 = unlimited).
	Times int
	// Seed drives the probability rolls and random bit choices.
	Seed int64
}

// Outcome is one firing of a failpoint, with the action parameters
// resolved (error defaulted, random bit drawn).
type Outcome struct {
	Kind  Kind
	Err   error
	Delay time.Duration
	Msg   string
	Bytes int
	// Bit is a seeded random non-negative int; KindCorrupt sites reduce
	// it modulo the payload's bit length, and message-shaped sites may
	// reuse it as a deterministic variant selector.
	Bit int
}

// armed is one site's state inside a Set. Counters and the RNG are
// advanced under the mutex so the fate sequence is a pure function of
// (Config, evaluation order).
type armed struct {
	mu    sync.Mutex
	cfg   Config
	rng   *rand.Rand
	evals int
	fires int
}

// Failpoint is one named injection point. Sites create it with New at
// package init and call Eval/Inject/InjectWrite on the hot path with
// the ctx they run under.
type Failpoint struct {
	name string
}

var (
	regMu    sync.Mutex
	registry = map[string]*Failpoint{}
)

// New registers a named failpoint and returns its handle. Names are
// global and must be unique; registering a duplicate panics (it is a
// programming error, caught at init).
func New(name string) *Failpoint {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" {
		panic("failpoint: empty name")
	}
	if _, dup := registry[name]; dup {
		panic("failpoint: duplicate registration of " + name)
	}
	fp := &Failpoint{name: name}
	registry[name] = fp
	return fp
}

// lookup returns the registered failpoint with the given name, or nil.
func lookup(name string) *Failpoint {
	regMu.Lock()
	defer regMu.Unlock()
	return registry[name]
}

// Names returns every registered failpoint name, sorted. This is the
// surface the name-coverage lint test walks.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Set is the arming of one run: a config, trigger counters and a
// seeded RNG per armed site. It is immutable once built (only the
// per-site counters advance), so one Set may be shared by every
// goroutine of its run.
type Set struct {
	sites map[*Failpoint]*armed
}

// NewSet arms each named failpoint with its config. Unknown names are
// an error: a chaos schedule referring to a failpoint that no longer
// exists must fail loudly, not silently inject nothing.
func NewSet(cfgs map[string]Config) (*Set, error) {
	s := &Set{sites: make(map[*Failpoint]*armed, len(cfgs))}
	for name, cfg := range cfgs {
		if err := s.arm(name, cfg); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Set) arm(name string, cfg Config) error {
	fp := lookup(name)
	if fp == nil {
		return fmt.Errorf("failpoint: unknown failpoint %q (known: %v)", name, Names())
	}
	if cfg.Kind == KindNone {
		return fmt.Errorf("failpoint: enabling %q with no action kind", name)
	}
	if cfg.Kind == KindDelay && cfg.Delay <= 0 {
		return fmt.Errorf("failpoint: enabling %q as delay without a duration", name)
	}
	s.sites[fp] = &armed{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	return nil
}

// Names returns the names of the failpoints armed in s, sorted.
func (s *Set) Names() []string {
	var names []string
	if s != nil {
		for fp := range s.sites {
			names = append(names, fp.name)
		}
	}
	sort.Strings(names)
	return names
}

type setKey struct{}

// WithSet returns a copy of ctx whose failpoint sites evaluate against
// s. A nil s disarms every site for ctx's descendants, shadowing any
// set further up.
func WithSet(ctx context.Context, s *Set) context.Context {
	return context.WithValue(ctx, setKey{}, s)
}

// FromContext returns the Set ctx carries, or nil.
func FromContext(ctx context.Context) *Set {
	s, _ := ctx.Value(setKey{}).(*Set)
	return s
}

// Name returns the failpoint's registered name.
func (f *Failpoint) Name() string { return f.name }

// Eval advances the failpoint's trigger state in the Set ctx carries
// and reports whether this evaluation fires, with the resolved action.
// The disarmed path — no set, or a set that does not arm f — is one
// ctx lookup and returns immediately.
func (f *Failpoint) Eval(ctx context.Context) (Outcome, bool) {
	if f == nil {
		return Outcome{}, false
	}
	s := FromContext(ctx)
	if s == nil {
		return Outcome{}, false
	}
	a := s.sites[f]
	if a == nil {
		return Outcome{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.evals++
	if a.evals <= a.cfg.After {
		return Outcome{}, false
	}
	if a.cfg.Times > 0 && a.fires >= a.cfg.Times {
		return Outcome{}, false
	}
	if p := a.cfg.Prob; p > 0 && p < 1 && a.rng.Float64() >= p {
		return Outcome{}, false
	}
	a.fires++
	out := Outcome{
		Kind:  a.cfg.Kind,
		Err:   a.cfg.Err,
		Delay: a.cfg.Delay,
		Msg:   a.cfg.Msg,
		Bytes: a.cfg.Bytes,
		Bit:   int(a.rng.Int63()),
	}
	if a.cfg.Bit >= 0 && a.cfg.Kind == KindCorrupt {
		out.Bit = a.cfg.Bit
	}
	if out.Msg == "" {
		out.Msg = fmt.Sprintf("failpoint %s: injected %s", f.name, out.Kind)
	}
	if out.Err == nil {
		switch out.Kind {
		case KindShortWrite:
			out.Err = io.ErrShortWrite
		default:
			out.Err = fmt.Errorf("failpoint %s: injected %s", f.name, out.Kind)
		}
	}
	return out, true
}

// Inject is the plain call-site helper: it sleeps for KindDelay, panics
// for KindPanic, and returns the injected error for every other fired
// kind (nil when the failpoint does not fire).
func (f *Failpoint) Inject(ctx context.Context) error {
	out, ok := f.Eval(ctx)
	if !ok {
		return nil
	}
	switch out.Kind {
	case KindDelay:
		time.Sleep(out.Delay)
		return nil
	case KindPanic:
		panic(out.Msg)
	default:
		return out.Err
	}
}

// InjectWrite is the payload call-site helper, for sites about to write
// p to stable storage or a wire:
//
//   - KindShortWrite returns the kept prefix of p and the injected
//     error; the caller should write exactly the prefix it got and then
//     surface the error, so the torn bytes really land.
//   - KindCorrupt returns a copy of p with one bit flipped and a nil
//     error: the write "succeeds" and the rot is only found on read.
//   - other kinds behave as Inject (payload unchanged).
//
// When the failpoint does not fire, p is returned as-is with nil error.
func (f *Failpoint) InjectWrite(ctx context.Context, p []byte) ([]byte, error) {
	out, ok := f.Eval(ctx)
	if !ok {
		return p, nil
	}
	switch out.Kind {
	case KindShortWrite:
		n := out.Bytes
		if n <= 0 || n >= len(p) {
			n = len(p) / 2
		}
		return p[:n], out.Err
	case KindCorrupt:
		if len(p) == 0 {
			return p, nil
		}
		cp := append([]byte(nil), p...)
		bit := out.Bit % (len(cp) * 8)
		cp[bit/8] ^= 1 << (bit % 8)
		return cp, nil
	case KindDelay:
		time.Sleep(out.Delay)
		return p, nil
	case KindPanic:
		panic(out.Msg)
	default:
		return p, out.Err
	}
}

// ErrInjected is a sentinel some tests use as Config.Err to assert an
// error came from a failpoint rather than the real world.
var ErrInjected = errors.New("failpoint: injected failure")
