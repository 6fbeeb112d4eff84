// Package dist distributes a fault-simulation campaign across workers.
//
// The bottleneck of the compaction method is its single optimized
// gate-level fault simulation per PTP (paper Sec. III-C). This package
// shards that simulation: a Coordinator partitions a campaign's
// remaining faults with the same lane-grouped partitioning the
// in-process parallel simulator uses (fault.Campaign.PartitionRemaining)
// and dispatches each shard — faults plus the pattern stream — to a
// worker over a pluggable Transport. Because first detections are
// per-fault, the merged result is bit-identical to a serial
// Campaign.SimulateCtx run no matter how shards are placed, retried,
// hedged, duplicated, or reordered.
//
// The coordinator is robust by construction:
//
//   - per-shard deadlines derived from the pattern-stream length;
//   - retry with exponential backoff + jitter, preferring a worker the
//     shard has not failed on;
//   - hedged re-dispatch of straggler shards (first reply wins, the
//     loser is canceled through its context);
//   - one health state machine per worker (health.go) answers "may this
//     worker get work?": a worker that stops answering pings is down
//     and its in-flight shards are redistributed; five consecutive
//     failures trip it open until a single probe proves it healthy; a
//     429/503 bounce holds it off for its Retry-After; one outvoted
//     checksum vote bans it for good;
//   - reply validation: a reply is cross-checked against its request
//     (shard/attempt echo, detection indices, clock cycles, ordering),
//     so corrupted or misdirected payloads are rejected and retried;
//   - all-or-nothing failure: the first shard that fails for good (out
//     of Options.MaxAttempts, refused a retry by the budget, a tied
//     checksum vote, or no live worker left) ends the run with an error
//     and commits nothing to the campaign, like the in-process engine.
//
// Transports: Local executes shards in-process (tests, single-machine
// parallelism); HTTP ships each shard to a cmd/stlworker daemon as one
// fixed-width binary frame (wire.go) and reads back a JSON reply
// (NewHandler is the server side). WithFailpoints decorates any
// transport with the dist.* fault-injection sites, armed by a set
// scoped to that one transport or by the set of each call's ctx.
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
)

// ShardRequest is the unit of distributed work: one shard of a
// campaign's fault list plus the full pattern stream, self-contained so
// a stateless worker can simulate it with nothing but a module builder.
type ShardRequest struct {
	// Shard and Attempt identify the dispatch; workers echo both so the
	// coordinator can reject stale or misdirected replies.
	Shard   int
	Attempt int
	// Module and Lanes select the gate-level model to elaborate.
	Module circuits.ModuleKind
	Lanes  int
	// Faults is the shard's explicit fault list; detections refer to it
	// by index, so coordinator and worker need not share a master list.
	Faults []fault.Fault
	// Stream is the pattern stream in application order, as the
	// coordinator's caller gave it: one entry per (lane, input vector)
	// when it comes from trace.Collector.
	Stream []fault.TimedPattern
}

// Detection is one first detection inside a shard reply.
type Detection struct {
	Fault   int32  `json:"fault"`   // index into the request's fault list
	Pattern int32  `json:"pattern"` // index into the request's stream
	CC      uint64 `json:"cc"`      // clock cycle of that pattern
}

// ShardResult is a worker's reply to one ShardRequest.
type ShardResult struct {
	Shard      int         `json:"shard"`
	Attempt    int         `json:"attempt"`
	Worker     string      `json:"worker"`
	Detections []Detection `json:"detections"`
	// Stats carries the worker's engine counters (blocks, activation
	// pre-screen skips, ...) for this shard. Advisory
	// telemetry: the coordinator aggregates accepted replies' stats into
	// Result.SimStats, but never bases correctness decisions on them, so
	// Validate leaves them unchecked.
	Stats fault.SimStats `json:"stats"`
	// Checksum is the content checksum of Detections
	// (ChecksumDetections). It catches accidental in-flight corruption
	// cheaply; it does NOT authenticate the worker — a Byzantine worker
	// checksums its own lie consistently, which is exactly why the
	// coordinator's verification re-executes shards on a second worker
	// and votes on these sums.
	Checksum string `json:"checksum"`
}

// ChecksumDetections computes the canonical content checksum of a
// detection list: sha256 over one "fault:pattern:cc" line per detection
// in reply order. Two honest workers simulating the same shard produce
// identical detection lists (the engine is deterministic), so their
// sums match; any divergence is corruption or a lie.
func ChecksumDetections(dets []Detection) string {
	h := sha256.New()
	for _, d := range dets {
		fmt.Fprintf(h, "%d:%d:%d\n", d.Fault, d.Pattern, d.CC)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// VerifyChecksum recomputes the reply's content checksum and compares
// it to the one the worker sent.
func (res *ShardResult) VerifyChecksum() error {
	if got := ChecksumDetections(res.Detections); got != res.Checksum {
		return fmt.Errorf("dist: reply checksum mismatch: payload sums to %s, reply claims %s", got, res.Checksum)
	}
	return nil
}

// Validate cross-checks a reply against the request it claims to answer.
// Every reply passes through here before it is merged; a reply that
// fails — wrong shard or attempt echo (misdirected/duplicated), indices
// out of range, clock-cycle mismatch, unsorted or duplicated detections
// (corruption) — is discarded and the dispatch counts as failed, so the
// shard is retried elsewhere.
func (res *ShardResult) Validate(req *ShardRequest) error {
	if res == nil {
		return errors.New("dist: empty reply")
	}
	if res.Shard != req.Shard || res.Attempt != req.Attempt {
		return fmt.Errorf("dist: reply echoes shard %d attempt %d, want shard %d attempt %d",
			res.Shard, res.Attempt, req.Shard, req.Attempt)
	}
	seen := make([]bool, len(req.Faults))
	prev := Detection{Fault: -1, Pattern: -1}
	for i, d := range res.Detections {
		if d.Fault < 0 || int(d.Fault) >= len(req.Faults) {
			return fmt.Errorf("dist: detection %d: fault index %d outside shard (%d faults)",
				i, d.Fault, len(req.Faults))
		}
		if d.Pattern < 0 || int(d.Pattern) >= len(req.Stream) {
			return fmt.Errorf("dist: detection %d: pattern index %d outside stream (%d patterns)",
				i, d.Pattern, len(req.Stream))
		}
		if d.CC != req.Stream[d.Pattern].CC {
			return fmt.Errorf("dist: detection %d: cc %d does not match stream cc %d at pattern %d",
				i, d.CC, req.Stream[d.Pattern].CC, d.Pattern)
		}
		if seen[d.Fault] {
			return fmt.Errorf("dist: detection %d: fault %d detected twice", i, d.Fault)
		}
		seen[d.Fault] = true
		if i > 0 && (d.Pattern < prev.Pattern || (d.Pattern == prev.Pattern && d.Fault <= prev.Fault)) {
			return fmt.Errorf("dist: detections out of (Pattern, Fault) order at %d", i)
		}
		prev = d
	}
	return nil
}
