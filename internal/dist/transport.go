package dist

import (
	"context"
	"fmt"
	"sync"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
)

// Transport carries shard requests to one worker. Implementations must
// be safe for concurrent use: the coordinator dispatches, hedges and
// pings on independent goroutines.
type Transport interface {
	// Name identifies the worker for placement decisions (retries prefer
	// a different name), health state and logs.
	Name() string
	// Simulate executes one shard and returns its detections. It must
	// honor ctx — the coordinator cancels losers of hedged races, shards
	// of dead workers, and dispatches that outlive their deadline.
	Simulate(ctx context.Context, req *ShardRequest) (*ShardResult, error)
	// Ping is the heartbeat probe; an error counts as a missed beat.
	Ping(ctx context.Context) error
	// Close releases the transport's resources.
	Close() error
}

// Local is an in-process Transport: it elaborates the requested module
// (cached per kind/lane count) and simulates the shard on this machine.
// It is the transport used by tests and by single-machine distribution,
// and the execution engine behind the HTTP worker daemon.
type Local struct {
	name string

	mu   sync.Mutex
	mods map[localModKey]*circuits.Module
}

type localModKey struct {
	kind  circuits.ModuleKind
	lanes int
}

// NewLocal creates an in-process worker transport with the given name.
func NewLocal(name string) *Local {
	return &Local{name: name, mods: map[localModKey]*circuits.Module{}}
}

// Name implements Transport.
func (l *Local) Name() string { return l.name }

// module returns the cached gate-level model for kind/lanes (0 = the
// module's default). Lane counts past a warp are refused before anything
// is built or cached, so hostile requests can neither crash the engine
// nor grow the cache.
func (l *Local) module(kind circuits.ModuleKind, lanes int) (*circuits.Module, error) {
	if lanes < 0 || lanes > gpu.WarpSize {
		return nil, fmt.Errorf("dist: worker %s: lane count %d outside [0, %d]", l.name, lanes, gpu.WarpSize)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	key := localModKey{kind, lanes}
	if m, ok := l.mods[key]; ok {
		return m, nil
	}
	m, err := circuits.Build(kind, lanes)
	if err != nil {
		return nil, fmt.Errorf("dist: worker %s: building %v: %w", l.name, kind, err)
	}
	l.mods[key] = m
	return m, nil
}

// Simulate implements Transport: one throwaway campaign over the
// request's fault list, simulated as a single subset. Detection indices
// refer to the request's fault list, already sorted (Pattern, Fault).
func (l *Local) Simulate(ctx context.Context, req *ShardRequest) (*ShardResult, error) {
	mod, err := l.module(req.Module, req.Lanes)
	if err != nil {
		return nil, err
	}
	camp := fault.NewCampaignWithFaults(mod, req.Faults)
	dets, stats, err := camp.SimulateSubset(ctx, req.Stream, nil)
	if err != nil {
		return nil, err
	}
	res := &ShardResult{
		Shard:      req.Shard,
		Attempt:    req.Attempt,
		Worker:     l.name,
		Detections: make([]Detection, len(dets)),
		Stats:      stats,
	}
	for i, d := range dets {
		res.Detections[i] = Detection{Fault: int32(d.Fault), Pattern: d.Pattern, CC: d.CC}
	}
	res.Checksum = ChecksumDetections(res.Detections)
	return res, nil
}

// Ping implements Transport; an in-process worker is always reachable.
func (l *Local) Ping(ctx context.Context) error { return ctx.Err() }

// Close implements Transport.
func (l *Local) Close() error { return nil }
