package run

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"gpustl/internal/circuits"
	"gpustl/internal/core"
	"gpustl/internal/stl"
)

// lookahead runs the logic simulations (core stage 2) of upcoming PTPs
// on helper goroutines while the runner compacts the library in order.
// Stage 2 reads nothing the shared fault campaigns hold, so running it
// early cannot change a result. Everything that does touch shared or
// ordered state stays on the runner, in library order: stage hooks,
// failpoints, the watchdog and all three fault simulations of a PTP.
//
// Helpers claim PTPs strictly in library order, and only up to window
// PTPs past the one the runner is on, which bounds how many finished
// traces wait in memory. The runner simulates its current PTP itself
// when no helper has claimed it, and then no helper will.
type lookahead struct {
	mu      sync.Mutex
	wake    *sync.Cond  // broadcast when cur advances or the lookahead stops
	jobs    []*logicJob // by library index; nil where no helper may claim
	cur     int         // the PTP the runner is on
	next    int         // the next PTP a helper may claim
	window  int         // helpers claim only up to cur+window, k+1 for k helpers
	stopped bool

	cancel context.CancelFunc // cancels every helper's run
	wg     sync.WaitGroup
}

// logicJob is one PTP's stage 2 as a helper runs it. A helper writes
// tr, err and the panic fields before it closes done; the runner reads
// them only after done is closed.
type logicJob struct {
	c      *core.Compactor
	p      *stl.PTP
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	tr       *core.Trace
	err      error
	panicked bool
	panicVal any
}

// lookaheadHelpers is how many helpers run ahead of the runner: the
// fault simulations' worker count (0 meaning GOMAXPROCS) bounds it, as
// does GOMAXPROCS, less the runner's own goroutine.
func lookaheadHelpers(workers int) int {
	procs := runtime.GOMAXPROCS(0)
	if workers == 0 {
		workers = procs
	}
	return min(workers, procs) - 1
}

// startLookahead starts k helpers over the simulated PTPs of lib after
// index start, the runner's first PTP (the ones before it were resumed
// from the journal). It returns nil, which runs every logic simulation
// on the runner, when k is below 1.
func startLookahead(ctx context.Context, k int, lib *stl.STL,
	compactors map[circuits.ModuleKind]*core.Compactor, start int) *lookahead {

	if k < 1 {
		return nil
	}
	la := &lookahead{jobs: make([]*logicJob, len(lib.PTPs)), cur: start, next: start + 1, window: k + 1}
	for i := start + 1; i < len(lib.PTPs); i++ {
		p := lib.PTPs[i]
		if c := compactors[p.Target]; simulated(c, p) {
			la.jobs[i] = &logicJob{c: c, p: p}
		}
	}
	la.wake = sync.NewCond(&la.mu)
	ctx, la.cancel = context.WithCancel(ctx)
	la.wg.Add(k)
	for range k {
		go la.help(ctx)
	}
	return la
}

// help claims and runs jobs until none is left or the lookahead stops.
func (la *lookahead) help(ctx context.Context) {
	defer la.wg.Done()
	for j := la.claim(ctx); j != nil; j = la.claim(ctx) {
		j.run()
	}
}

// claim returns the next job in library order once the window reaches
// it, with its own context derived from ctx, or nil when there is none
// left or the lookahead stopped.
func (la *lookahead) claim(ctx context.Context) *logicJob {
	la.mu.Lock()
	defer la.mu.Unlock()
	for {
		for la.next < len(la.jobs) && la.jobs[la.next] == nil {
			la.next++
		}
		if la.stopped || la.next >= len(la.jobs) {
			return nil
		}
		if la.next <= la.cur+la.window {
			break
		}
		la.wake.Wait()
	}
	j := la.jobs[la.next]
	la.next++
	j.ctx, j.cancel = context.WithCancel(ctx)
	j.done = make(chan struct{})
	return j
}

// run simulates the job's PTP. A panic is kept for the runner to
// re-raise rather than crashing the process from a helper.
func (j *logicJob) run() {
	defer close(j.done)
	defer func() {
		if r := recover(); r != nil {
			j.panicked, j.panicVal = true, r
		}
	}()
	j.tr, j.err = j.c.TracePTP(j.ctx, j.p)
}

// take moves the runner to PTP i and hands it the job a helper claimed
// for it, or nil when none did: then the runner simulates PTP i itself.
// Helpers claim in order, so PTP i was claimed exactly when next is past
// it and it has a job.
func (la *lookahead) take(i int) *logicJob {
	if la == nil {
		return nil
	}
	la.mu.Lock()
	defer la.mu.Unlock()
	la.cur = i
	la.wake.Broadcast()
	if la.next <= i {
		la.next = i + 1
		return nil
	}
	j := la.jobs[i]
	la.jobs[i] = nil
	return j
}

// stop cancels the helpers' runs and waits for every helper to exit.
func (la *lookahead) stop() {
	if la == nil {
		return
	}
	la.mu.Lock()
	la.stopped = true
	la.wake.Broadcast()
	la.mu.Unlock()
	la.cancel()
	la.wg.Wait()
}

// state is the trace stage's logic_sim attribute: where the PTP's logic
// simulation stood when the runner entered that stage.
func (j *logicJob) state() string {
	if j == nil {
		return "inline"
	}
	select {
	case <-j.done:
		return "ahead"
	default:
		return "waited"
	}
}

// wait is the job's core.LogicSim: it returns the helper's trace once
// the helper finishes. When ctx ends first (the watchdog or a cancel),
// it cancels the helper's run and fails with ctx's error. A helper's
// panic is re-raised here, on the runner, so that compactOne classifies
// it as a panic at the trace stage.
func (j *logicJob) wait(ctx context.Context) (*core.Trace, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		j.cancel()
		return nil, fmt.Errorf("run: waiting for the logic simulation of %s: %w", j.p.Name, ctx.Err())
	}
	if j.panicked {
		panic(j.panicVal)
	}
	return j.tr, j.err
}

// release cancels the job's run if it is still going (its PTP settled
// without needing it) and frees its context.
func (j *logicJob) release() {
	if j != nil {
		j.cancel()
	}
}
