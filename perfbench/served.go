package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gpustl"
	"gpustl/internal/dist"
	"gpustl/internal/server"
)

// pollEvery is how often a submitted campaign's state is read. Well
// below a millisecond, so polling does not quantize latency.
const pollEvery = 200 * time.Microsecond

// servedBench submits SP libraries inline to an in-process stlserver
// whose fleet is a dist coordinator over two stlworker handlers on
// loopback HTTP. The server keeps a real state directory: queue.wal,
// per-campaign run journals and the verified cache.
type servedBench struct {
	cfg      gpustl.GPUConfig
	tpgen    *gpustl.PTP
	seed     int64
	rng      *rand.Rand
	stateDir string
	ref      *probeRef // nil when the fleet is not wrapped

	srv     *server.Server
	stop    context.CancelFunc
	runErr  chan error
	workers []*http.Server
	serving sync.WaitGroup
	fleet   []dist.Transport

	libs      []*gpustl.STL
	specs     [][]byte   // inline STL JSON per library
	artifacts [][32]byte // digest of the served artifact per library
	submitted int
}

// servedLibrary is library k: the shared TPGEN program plus a RAND
// program with its own seed, so every new library misses the cache.
func (b *servedBench) servedLibrary(k int) error {
	lib := &gpustl.STL{PTPs: []*gpustl.PTP{b.tpgen, gpustl.GenerateRAND(120, b.seed+5+int64(k)*7919)}}
	var buf bytes.Buffer
	if err := gpustl.WriteSTL(&buf, lib); err != nil {
		return fmt.Errorf("encoding library %d: %w", k, err)
	}
	b.libs = append(b.libs, lib)
	b.specs = append(b.specs, buf.Bytes())
	b.artifacts = append(b.artifacts, [32]byte{})
	return nil
}

// newSPServed starts the fleet and the server, then serves library 0
// cold and checks it against an in-process run of the same library.
// With traced set, the fleet's coordinator, transports and worker
// handlers are wrapped so campaigns can be traced.
func newSPServed(ctx context.Context, seed int64, stateDir string, traced bool) (b *servedBench, err error) {
	mod, err := gpustl.BuildModule(gpustl.ModuleSP)
	if err != nil {
		return nil, err
	}
	b = &servedBench{
		cfg:      gpustl.DefaultGPUConfig(),
		tpgen:    spTPGEN(mod),
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		stateDir: stateDir,
		runErr:   make(chan error, 1),
	}
	if traced {
		b.ref = &probeRef{}
	}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}
	for i := range 2 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("worker listener: %w", err)
		}
		var h http.Handler = gpustl.NewWorkerHandler(fmt.Sprintf("w%d", i+1), nil)
		var t dist.Transport = dist.NewHTTP(ln.Addr().String())
		if traced {
			h = handlerProbe{next: h, ref: b.ref}
			t = transportProbe{Transport: t, ref: b.ref}
		}
		hs := &http.Server{Handler: h}
		b.workers = append(b.workers, hs)
		b.fleet = append(b.fleet, t)
		b.serving.Add(1)
		go func() {
			defer b.serving.Done()
			hs.Serve(ln) // returns http.ErrServerClosed on close
		}()
	}
	b.srv = server.New(server.Options{
		StateDir:   stateDir,
		Holder:     "perfbench",
		SimWorkers: runtime.GOMAXPROCS(0),
		Fleet: func() (gpustl.FaultSimulator, error) {
			co, err := dist.New(dist.Options{}, b.fleet...)
			if err != nil || b.ref == nil {
				return co, err
			}
			return simProbe{next: co, ref: b.ref}, nil
		},
	})
	var sctx context.Context
	sctx, b.stop = context.WithCancel(ctx)
	go func() { b.runErr <- b.srv.Run(sctx) }()
	for !b.srv.Ready() {
		select {
		case err := <-b.runErr:
			b.runErr <- err // close still waits on it
			return nil, fmt.Errorf("server stopped before ready: %v", err)
		case <-time.After(time.Millisecond):
		}
	}

	// The cold campaign, and the in-process reference it must equal.
	// Inline libraries sample 4,000 faults with seed 1, like the server.
	if err := b.servedLibrary(0); err != nil {
		return nil, err
	}
	ms, err := gpustl.NewModuleSet(b.libs[0], 4000, 1)
	if err != nil {
		return nil, err
	}
	rep, err := gpustl.CompactWholeSTLResilient(ctx, b.cfg, ms, b.libs[0], gpustl.CompactorOptions{}, runnerOptions())
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	var want bytes.Buffer
	if err := gpustl.WriteSTL(&want, rep.Compacted); err != nil {
		return nil, err
	}
	got, _, _, err := b.serve(ctx, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("cold campaign: %w", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		return nil, errors.New("cold campaign: served artifact differs from the in-process run")
	}
	b.artifacts[0] = sha256.Sum256(got)
	return b, nil
}

// serve submits library k under a fresh campaign id and waits for the
// verified artifact. It returns the artifact, the wall time from
// submit to artifact in hand, and whether the server answered from its
// cache.
func (b *servedBench) serve(ctx context.Context, k int, p *probe) ([]byte, time.Duration, bool, error) {
	b.submitted++
	id := fmt.Sprintf("c%05d", b.submitted)
	spec := &server.Spec{Tenant: "bench", STL: b.specs[k]}
	if p != nil {
		b.ref.Store(p)
		defer b.ref.Store(nil)
	}
	start := time.Now()
	sub := p.begin("submit")
	_, err := b.srv.Submit(id, spec)
	p.end(sub)
	if err != nil {
		return nil, 0, false, fmt.Errorf("submit %s: %w", id, err)
	}
	var v server.CampaignView
	for {
		v, _ = b.srv.Get(id)
		if v.State.Terminal() {
			break
		}
		select {
		case <-ctx.Done():
			return nil, 0, false, ctx.Err()
		case <-time.After(pollEvery):
		}
	}
	done := time.Now()
	if v.State != server.StateDone {
		return nil, 0, false, fmt.Errorf("campaign %s ended %s: %s", id, v.State, v.Error)
	}
	art, err := b.srv.Result(id)
	wall := time.Since(start)
	p.add("result", done, time.Now())
	if err != nil {
		return nil, 0, false, fmt.Errorf("result of %s: %w", id, err)
	}
	return art, wall, v.FromCache, nil
}

// campaign serves a new library twice in every three campaigns and
// resubmits an earlier one the third time, so a third of campaigns
// are cache hits.
func (b *servedBench) campaign(ctx context.Context, i int, rec *recorder) (campaignResult, error) {
	resubmit := i%3 == 2
	k := len(b.libs)
	if resubmit {
		k = b.rng.Intn(len(b.libs))
	} else if err := b.servedLibrary(k); err != nil {
		return campaignResult{}, err
	}
	p := newProbe(rec, i, "campaign")
	art, wall, hit, err := b.serve(ctx, k, p)
	p.finish()
	if err != nil {
		return campaignResult{}, err
	}
	res := campaignResult{wall: wall, hit: hit, probe: p, kind: gpustl.ModuleSP, orig: b.libs[k].PTPs}
	res.verify = func() ([]*gpustl.PTP, error) {
		if hit != resubmit {
			return nil, fmt.Errorf("library %d: cache hit %v, want %v", k, hit, resubmit)
		}
		if resubmit {
			if sha256.Sum256(art) != b.artifacts[k] {
				return nil, fmt.Errorf("library %d: resubmitted artifact differs from the first one", k)
			}
			return nil, nil
		}
		lib, err := gpustl.ReadSTL(bytes.NewReader(art))
		if err != nil {
			return nil, fmt.Errorf("library %d: artifact does not parse: %w", k, err)
		}
		if len(lib.PTPs) != len(b.libs[k].PTPs) {
			return nil, fmt.Errorf("library %d: artifact holds %d PTPs, want %d", k, len(lib.PTPs), len(b.libs[k].PTPs))
		}
		b.artifacts[k] = sha256.Sum256(art)
		return lib.PTPs, nil
	}
	return res, nil
}

// stateBytes sizes the journals (queue.wal and the per-campaign run
// journals) and the verified cache in the state directory.
func (b *servedBench) stateBytes() (journal, cache int64, err error) {
	size := func(path string) (int64, error) {
		var n int64
		err := filepath.WalkDir(path, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
			return nil
		})
		return n, err
	}
	q, err := size(filepath.Join(b.stateDir, "queue.wal"))
	if err != nil {
		return 0, 0, err
	}
	c, err := size(filepath.Join(b.stateDir, "campaigns"))
	if err != nil {
		return 0, 0, err
	}
	cache, err = size(filepath.Join(b.stateDir, "cache"))
	return q + c, cache, err
}

// close drains the server, stops the workers and waits for all of
// them, then removes the state directory.
func (b *servedBench) close() error {
	var first error
	if b.stop != nil {
		b.stop()
		first = <-b.runErr
	}
	for _, hs := range b.workers {
		if err := hs.Close(); err != nil && first == nil {
			first = err
		}
	}
	b.serving.Wait()
	for _, t := range b.fleet {
		t.Close()
	}
	if err := os.RemoveAll(b.stateDir); err != nil && first == nil {
		first = err
	}
	return first
}
