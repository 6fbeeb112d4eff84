package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gpustl"
	"gpustl/internal/dist"
	"gpustl/internal/fault"
)

// probe is one traced campaign's handle on the recorder. The wrappers
// around each layer report through it; they only time calls into
// existing entry points and never change what those calls do.
type probe struct {
	rec  *recorder
	id   int // campaign id shared by all of the campaign's spans
	root int // the campaign span

	mu    sync.Mutex
	stage int // open stage span (library workloads)
	fsim  int // open fault-simulation span
	calls int // fault-simulation calls so far
	// Work counters of the campaign.
	stats      fault.SimStats
	dispatches int
	shards     map[[2]int]bool // (fault-simulation span, shard id)
	wireBytes  int64
}

// newProbe opens campaign id's root span. A nil recorder gives a nil
// probe, whose methods do nothing.
func newProbe(rec *recorder, id int, rootName string) *probe {
	if rec == nil {
		return nil
	}
	return &probe{rec: rec, id: id, root: rec.begin(id, 0, rootName), shards: map[[2]int]bool{}}
}

// begin opens a child of the root span.
func (p *probe) begin(name string) int {
	if p == nil {
		return 0
	}
	return p.rec.begin(p.id, p.root, name)
}

func (p *probe) end(id int) {
	if p != nil {
		p.rec.end(id)
	}
}

// add records a finished child of the root span.
func (p *probe) add(name string, start, end time.Time) {
	if p != nil {
		p.rec.add(p.id, p.root, name, start, end)
	}
}

// finish closes the open stage span and the root span.
func (p *probe) finish() {
	if p == nil {
		return
	}
	p.endStage()
	p.rec.end(p.root)
}

// probeRef is the campaign currently being traced, or nil. Wrappers
// that outlive one campaign (the served fleet) read it on every call.
type probeRef struct{ atomic.Pointer[probe] }

// onStage is a RunnerOptions.StageHook: stage spans are contiguous,
// each ending when the next begins.
func (p *probe) onStage(_ string, s gpustl.Stage) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rec.end(p.stage)
	p.stage = p.rec.begin(p.id, p.root, "stage:"+string(s))
	return nil
}

// endStage closes the open stage span when a PTP settles.
func (p *probe) endStage() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rec.end(p.stage)
	p.stage = 0
}

// simKinds names the three fault simulations core runs per PTP, in
// call order: the original program's standalone FC, the stage-3 run
// with fault dropping, and the compacted program's standalone FC.
var simKinds = [3]string{"fsim:orig_fc", "fsim:stage3", "fsim:comp_fc"}

func (p *probe) beginSim() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	parent := p.root
	if p.stage != 0 {
		parent = p.stage
	}
	p.fsim = p.rec.begin(p.id, parent, simKinds[p.calls%3])
	p.calls++
	return p.fsim
}

func (p *probe) endSim(id int, engine *fault.Report) {
	p.rec.end(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fsim = 0
	if engine != nil {
		p.stats.Add(engine.Stats)
	}
}

// work is a snapshot of the probe's counters, taken once the campaign
// is over (a canceled RPC's handler may still be finishing).
type work struct {
	calls      int
	stats      fault.SimStats
	dispatches int
	shards     int
	wireBytes  int64
}

func (p *probe) work() work {
	p.mu.Lock()
	defer p.mu.Unlock()
	return work{p.calls, p.stats, p.dispatches, len(p.shards), p.wireBytes}
}

func (p *probe) openSim() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fsim
}

// simProbe is a CompactorOptions.Simulator that times each fault
// simulation. With next nil it runs the campaign's in-process engine,
// exactly as core does when no Simulator is set.
type simProbe struct {
	next gpustl.FaultSimulator
	ref  *probeRef
}

func (s simProbe) SimulateCampaign(ctx context.Context, camp *fault.Campaign, stream []fault.TimedPattern, opt fault.SimOptions) (*fault.Report, error) {
	p := s.ref.Load()
	if p == nil {
		return s.run(ctx, camp, stream, opt)
	}
	id := p.beginSim()
	rep, err := s.run(ctx, camp, stream, opt)
	var engine *fault.Report
	if s.next == nil {
		engine = rep // the in-process engine's counters; shards report their own
	}
	p.endSim(id, engine)
	return rep, err
}

func (s simProbe) run(ctx context.Context, camp *fault.Campaign, stream []fault.TimedPattern, opt fault.SimOptions) (*fault.Report, error) {
	if s.next != nil {
		return s.next.SimulateCampaign(ctx, camp, stream, opt)
	}
	return camp.SimulateCtx(ctx, stream, opt)
}

// transportProbe times each shard RPC the coordinator dispatches.
type transportProbe struct {
	dist.Transport
	ref *probeRef
}

func (t transportProbe) Simulate(ctx context.Context, req *dist.ShardRequest) (*dist.ShardResult, error) {
	p := t.ref.Load()
	if p == nil {
		return t.Transport.Simulate(ctx, req)
	}
	sim := p.openSim()
	start := time.Now()
	res, err := t.Transport.Simulate(ctx, req)
	p.rec.add(p.id, sim, "rpc", start, time.Now())
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dispatches++
	p.shards[[2]int{sim, req.Shard}] = true
	if err == nil {
		p.stats.Add(res.Stats)
	}
	return res, err
}

// simulatePath is the worker's shard endpoint (dist's HTTP protocol).
const simulatePath = "/simulate"

// handlerProbe times the worker side of each shard RPC and counts the
// bytes it receives and sends.
type handlerProbe struct {
	next http.Handler
	ref  *probeRef
}

func (h handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := h.ref.Load()
	if p == nil || r.URL.Path != simulatePath {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	p.rec.add(p.id, p.openSim(), "worker", start, time.Now())
	p.mu.Lock()
	p.wireBytes += max(r.ContentLength, 0) + cw.n
	p.mu.Unlock()
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}
