package dist

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpustl/internal/failpoint"
)

// The dist failpoint sites, threaded through the transport wrapper
// below. All are message-shaped: they decide the fate of one shard
// round trip.
var (
	// dist.reply.delay stalls a reply (straggler worker; exercises
	// hedging and deadlines).
	fpReplyDelay = failpoint.New("dist.reply.delay")
	// dist.reply.drop loses a computed reply (network eats the response;
	// the work was done, the coordinator never hears).
	fpReplyDrop = failpoint.New("dist.reply.drop")
	// dist.reply.dup answers with a stale copy of an earlier reply
	// (misdirected or replayed response; the shard/attempt echo is
	// wrong, so validation must catch it).
	fpReplyDup = failpoint.New("dist.reply.dup")
	// dist.reply.reorder delivers replies out of order by swapping the
	// current reply with a held earlier one.
	fpReplyReorder = failpoint.New("dist.reply.reorder")
	// dist.reply.corrupt mangles the reply's structure: an out-of-range
	// fault index, a clock cycle off the stream, a duplicated or
	// misordered detection. Validate must reject every variant.
	fpReplyCorrupt = failpoint.New("dist.reply.corrupt")
	// dist.reply.byzantine makes the worker lie plausibly: the reply
	// passes validation and carries a consistent checksum, but its
	// detections are wrong. Only re-execution and voting can catch it.
	fpReplyByzantine = failpoint.New("dist.reply.byzantine")
	// dist.reply.busy bounces the dispatch as a saturated worker would
	// (429 + Retry-After): a brownout. The coordinator must reroute with
	// no failure charge; Config.Delay doubles as the Retry-After hint.
	fpReplyBusy = failpoint.New("dist.reply.busy")
	// dist.transport.error fails the round trip outright (connection
	// refused, TLS error, ...).
	fpTransportErr = failpoint.New("dist.transport.error")
	// dist.ping.error fails heartbeat probes (exercises dead-worker
	// declaration and revival).
	fpPingErr = failpoint.New("dist.ping.error")
	// dist.worker.kill freezes the worker for good: the Simulate call it
	// fires on and every later one block until their ctx ends, and every
	// Ping fails. Only the heartbeat's death declaration can settle the
	// frozen worker's shards.
	fpWorkerKill = failpoint.New("dist.worker.kill")
)

// errWorkerKilled is what a worker frozen by dist.worker.kill answers
// to pings.
var errWorkerKilled = errors.New("dist: worker killed by failpoint dist.worker.kill")

// faultTransport decorates a Transport with the dist failpoint sites.
type faultTransport struct {
	inner Transport
	// fpctx carries the set scoped to this transport; nil evaluates
	// each call against the set of its own ctx.
	fpctx  context.Context
	killed atomic.Bool

	mu    sync.Mutex
	stale *ShardResult // last reply seen, for dup/reorder
	held  *ShardResult // reply held back by an armed reorder
}

// WithFailpoints wraps t with the dist.* failpoint sites. A non-nil set
// scopes that arming to this one transport: its calls evaluate against
// set whatever their ctx carries, which is how a chaos schedule makes
// one worker of a fleet faulty. A nil set evaluates each call against
// the set of the ctx it runs under, which is how a worker process
// serves its -failpoints.
func WithFailpoints(t Transport, set *failpoint.Set) Transport {
	ft := &faultTransport{inner: t}
	if set != nil {
		ft.fpctx = failpoint.WithSet(context.Background(), set)
	}
	return ft
}

// scope returns the ctx this call's sites evaluate against.
func (ft *faultTransport) scope(ctx context.Context) context.Context {
	if ft.fpctx != nil {
		return ft.fpctx
	}
	return ctx
}

func (ft *faultTransport) Name() string { return ft.inner.Name() }
func (ft *faultTransport) Close() error { return ft.inner.Close() }

func (ft *faultTransport) Ping(ctx context.Context) error {
	if ft.killed.Load() {
		return errWorkerKilled
	}
	if out, ok := fpPingErr.Eval(ft.scope(ctx)); ok {
		return out.Err
	}
	return ft.inner.Ping(ctx)
}

func (ft *faultTransport) Simulate(ctx context.Context, req *ShardRequest) (*ShardResult, error) {
	fctx := ft.scope(ctx)
	if _, ok := fpWorkerKill.Eval(fctx); ok || ft.killed.Load() {
		// Frozen, not crashed: no reply ever comes back.
		ft.killed.Store(true)
		<-ctx.Done()
		return nil, context.Cause(ctx)
	}
	if out, ok := fpReplyBusy.Eval(fctx); ok {
		// Bounce before any work, exactly like a real saturated worker.
		return nil, &BusyError{Worker: ft.inner.Name(), After: out.Delay}
	}
	if out, ok := fpTransportErr.Eval(fctx); ok {
		return nil, out.Err
	}
	if out, ok := fpReplyDelay.Eval(fctx); ok {
		select {
		case <-time.After(out.Delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	res, err := ft.inner.Simulate(ctx, req)
	if err != nil {
		return nil, err
	}
	if out, ok := fpReplyByzantine.Eval(fctx); ok {
		byzantineMutate(res, req, out.Bit)
	}
	if out, ok := fpReplyCorrupt.Eval(fctx); ok {
		corruptReply(res, out.Bit)
	}
	ft.mu.Lock()
	prev := ft.stale
	ft.stale = res
	ft.mu.Unlock()
	if out, ok := fpReplyDrop.Eval(fctx); ok {
		return nil, fmt.Errorf("%s: reply lost in flight", out.Msg)
	}
	if _, ok := fpReplyDup.Eval(fctx); ok && prev != nil && prev != res {
		// Replay an earlier reply verbatim: its shard/attempt echo is
		// stale, so coordinator validation must reject it.
		return prev, nil
	}
	if _, ok := fpReplyReorder.Eval(fctx); ok {
		ft.mu.Lock()
		swapped := ft.held
		ft.held = res
		ft.mu.Unlock()
		if swapped != nil {
			return swapped, nil
		}
		return res, nil // nothing held yet; start the swap chain
	}
	return res, nil
}

// corruptReply mangles a reply in one of the ways Validate must catch;
// variant (a seeded random int from the failpoint) picks the way. With
// no detections to mangle, it appends a bogus one.
func corruptReply(r *ShardResult, variant int) {
	if len(r.Detections) == 0 {
		r.Detections = append(r.Detections, Detection{Fault: 1 << 20})
		return
	}
	switch variant % 4 {
	case 0: // out-of-range fault index
		r.Detections[0].Fault = 1 << 20
	case 1: // clock cycle no longer matching the stream
		r.Detections[len(r.Detections)/2].CC++
	case 2: // duplicated detection
		r.Detections = append(r.Detections, r.Detections[0])
	default: // order violation (also a duplicate when only one entry)
		r.Detections = append(r.Detections, r.Detections[len(r.Detections)-1])
	}
}

// byzantineMutate turns an honest reply into a plausible lie: the
// mutated detections still pass Validate (indices in range, CCs
// matching the stream, sorted, no duplicates) and the reply's checksum
// is recomputed so it is self-consistent — a Byzantine worker checksums
// what it actually sends. variant (a seeded random int from the
// failpoint) picks the lie deterministically.
func byzantineMutate(res *ShardResult, req *ShardRequest, variant int) {
	if variant < 0 {
		variant = -variant
	}
	detected := make(map[int32]bool, len(res.Detections))
	for _, d := range res.Detections {
		detected[d.Fault] = true
	}
	// Prefer claiming a detection for a fault the simulation did not
	// detect (inflates coverage — the dangerous direction: compaction
	// would drop instructions that are actually needed); fall back to
	// suppressing a real detection.
	var undetected []int32
	for i := range req.Faults {
		if !detected[int32(i)] {
			undetected = append(undetected, int32(i))
		}
	}
	switch {
	case len(undetected) > 0 && len(req.Stream) > 0:
		f := undetected[variant%len(undetected)]
		p := int32(variant % len(req.Stream))
		res.Detections = append(res.Detections, Detection{
			Fault: f, Pattern: p, CC: req.Stream[p].CC,
		})
		sort.Slice(res.Detections, func(i, j int) bool {
			a, b := res.Detections[i], res.Detections[j]
			if a.Pattern != b.Pattern {
				return a.Pattern < b.Pattern
			}
			return a.Fault < b.Fault
		})
	case len(res.Detections) > 0:
		i := variant % len(res.Detections)
		res.Detections = append(res.Detections[:i], res.Detections[i+1:]...)
	default:
		return // nothing to lie about
	}
	res.Checksum = ChecksumDetections(res.Detections)
}
