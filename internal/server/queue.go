package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"gpustl/internal/failpoint"
	"gpustl/internal/journal"
)

// Failpoints for the control plane. server.journal.append fails the
// queue-journal append path — the server treats that as fail-stop (it
// crashes rather than run with an un-journaled transition), which is
// exactly what the chaos harness wants: a kill at a journaled cut
// point. server.lease.expire makes a heartbeat renewal "miss" so the
// owner must detach its executor and a peer can adopt the campaign.
// server.cache.corrupt flips bytes in a result-cache artifact as it is
// written, proving the read-side checksum verification refuses to
// serve rot.
var (
	fpJournalAppend = failpoint.New("server.journal.append")
	fpLeaseExpire   = failpoint.New("server.lease.expire")
	fpCacheCorrupt  = failpoint.New("server.cache.corrupt")
)

// State is a campaign's position in its lifecycle. Transitions are
// journaled before they are visible:
//
//	queued → leased → running → done | failed | canceled
//	          └────────┴─→ queued (requeue: lease lost / server died)
type State string

const (
	StateQueued   State = "queued"
	StateLeased   State = "leased"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Queue-journal record types. One record per state transition; replay
// folds them, last writer wins, terminal states stick.
const (
	recSubmit    = "submit"    // campaign accepted: id, tenant, spec
	recLease     = "lease"     // ownership claimed: id, holder
	recRunning   = "running"   // executor started simulating
	recRequeue   = "requeue"   // ownership released un-finished: back to queued
	recDone      = "done"      // artifact durably cached
	recFailed    = "failed"    // campaign failed for good
	recCancelReq = "cancelreq" // client asked for cancellation
	recCanceled  = "canceled"  // cancellation took effect
)

// queueRec is the body of every queue-journal record. Unused fields
// stay empty per type; one schema keeps replay simple and the journal
// greppable.
type queueRec struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant,omitempty"`
	Spec      json.RawMessage `json:"spec,omitempty"`
	Holder    string          `json:"holder,omitempty"`
	CacheKey  string          `json:"cacheKey,omitempty"`
	FromCache bool            `json:"fromCache,omitempty"`
	Reason    string          `json:"reason,omitempty"`
	Error     string          `json:"error,omitempty"`
	// Trace is the submitting client's trace context (X-Gpustl-Trace
	// wire format), journaled with the submit record so a campaign
	// resumed by a successor server still lands in the original trace.
	Trace string `json:"trace,omitempty"`
}

// Campaign is the journaled state of one campaign plus the owning
// server's runtime handle on it. All fields are guarded by the queue
// mutex.
type Campaign struct {
	ID      string
	Tenant  string
	SpecRaw json.RawMessage
	// SubmitSeq is the journal sequence of the submit record — the
	// FIFO tie-break inside a tenant.
	SubmitSeq uint64
	State     State
	Holder    string
	CancelReq bool
	CacheKey  string
	FromCache bool
	Error     string
	Requeues  int
	// Trace is the submit-time trace context (wire format, may be "").
	Trace string

	// submitted is when this server learned of the campaign (live
	// submit or journal replay) — the queue-wait span's start. Runtime
	// only, never journaled: queue-wait after a restart measures from
	// the restart, which is when waiting under this server began.
	submitted time.Time

	// detach cancels the owning executor with a cause. Non-nil only on
	// the server currently running the campaign; never journaled.
	detach func(error)
}

// CampaignView is the JSON shape of a campaign in API responses.
type CampaignView struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	State     State  `json:"state"`
	Holder    string `json:"holder,omitempty"`
	CancelReq bool   `json:"cancelRequested,omitempty"`
	CacheKey  string `json:"cacheKey,omitempty"`
	FromCache bool   `json:"fromCache,omitempty"`
	Error     string `json:"error,omitempty"`
	Requeues  int    `json:"requeues,omitempty"`
}

func (c *Campaign) view() CampaignView {
	return CampaignView{
		ID: c.ID, Tenant: c.Tenant, State: c.State, Holder: c.Holder,
		CancelReq: c.CancelReq, CacheKey: c.CacheKey, FromCache: c.FromCache,
		Error: c.Error, Requeues: c.Requeues,
	}
}

// queue is the durable campaign queue: an append-only journal of state
// transitions plus the in-memory fold of it. Writes go journal-first —
// a transition that is not durably appended never becomes visible, so
// a crash at any instant leaves a state the next replay reconstructs
// exactly.
type queue struct {
	mu    sync.Mutex
	j     *journal.Journal
	camps map[string]*Campaign
	// fpctx keeps the values of the ctx the queue was opened under:
	// appends take no ctx, so server.journal.append evaluates against
	// its failpoint set.
	fpctx context.Context
}

// openQueue opens (or creates) the queue journal in dir and folds its
// records back into campaign state. Campaigns that were leased or
// running when the previous owner died come back as their journaled
// state — adoption is the caller's decision, made once it holds the
// state-dir lease.
func openQueue(ctx context.Context, path string) (*queue, *journal.Replay, error) {
	j, rp, err := journal.Open(ctx, path)
	if err != nil {
		return nil, nil, fmt.Errorf("server: opening queue journal: %w", err)
	}
	q := &queue{j: j, camps: make(map[string]*Campaign), fpctx: context.WithoutCancel(ctx)}
	for _, rec := range rp.Records {
		if err := q.apply(rec.Seq, rec.Type, rec.Body); err != nil {
			j.Close()
			return nil, nil, fmt.Errorf("server: replaying queue journal seq %d: %w", rec.Seq, err)
		}
	}
	return q, rp, nil
}

// apply folds one journal record into the in-memory state. It is the
// single transition function used by both replay and live appends, so
// a recovered server and the server that wrote the records agree by
// construction.
func (q *queue) apply(seq uint64, typ string, body json.RawMessage) error {
	var r queueRec
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding %s record: %w", typ, err)
	}
	if r.ID == "" {
		return fmt.Errorf("%s record without campaign id", typ)
	}
	c := q.camps[r.ID]
	if typ == recSubmit {
		if c != nil {
			// Duplicate submit records can exist if a crash landed
			// between append and the HTTP reply; the first one wins.
			return nil
		}
		q.camps[r.ID] = &Campaign{
			ID: r.ID, Tenant: r.Tenant, SpecRaw: r.Spec,
			SubmitSeq: seq, State: StateQueued,
			Trace: r.Trace, submitted: time.Now(),
		}
		return nil
	}
	if c == nil {
		return fmt.Errorf("%s record for unknown campaign %q", typ, r.ID)
	}
	if c.State.Terminal() {
		// Terminal states stick: a straggling lease/requeue appended by
		// a dying peer after completion must not resurrect the campaign.
		return nil
	}
	switch typ {
	case recLease:
		// A lease on a queued campaign claims it. Older servers also
		// journaled a lease per running campaign on every heartbeat;
		// replaying one must not demote the state.
		if c.State == StateQueued {
			c.State = StateLeased
		}
		c.Holder = r.Holder
	case recRunning:
		c.State = StateRunning
		c.Holder = r.Holder
	case recRequeue:
		c.State = StateQueued
		c.Holder = ""
		c.Requeues++
	case recDone:
		c.State = StateDone
		c.CacheKey = r.CacheKey
		c.FromCache = r.FromCache
		c.Holder = ""
		c.detach = nil
	case recFailed:
		c.State = StateFailed
		c.Error = r.Error
		c.Holder = ""
		c.detach = nil
	case recCancelReq:
		c.CancelReq = true
	case recCanceled:
		c.State = StateCanceled
		c.Error = r.Error
		c.Holder = ""
		c.detach = nil
	default:
		return fmt.Errorf("unknown record type %q", typ)
	}
	return nil
}

// append journals one transition and folds it into memory. Any append
// failure — injected via server.journal.append or real — is returned
// to the caller, and the server treats it as fail-stop: it must crash
// rather than keep running with an un-journaled transition the next
// replay would not know about.
func (q *queue) append(typ string, r queueRec) error {
	if err := fpJournalAppend.Inject(q.fpctx); err != nil {
		return fmt.Errorf("server: queue journal append %s(%s): %w", typ, r.ID, err)
	}
	body, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("server: encoding %s record: %w", typ, err)
	}
	seq, err := q.j.Append(typ, json.RawMessage(body))
	if err != nil {
		return fmt.Errorf("server: queue journal append %s(%s): %w", typ, r.ID, err)
	}
	return q.apply(seq, typ, body)
}

func (q *queue) close() error { return q.j.Close() }

// get returns the campaign with the given id, or nil.
func (q *queue) get(id string) *Campaign {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.camps[id]
}

// list returns campaign views sorted by submit order.
func (q *queue) list() []CampaignView {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]CampaignView, 0, len(q.camps))
	ids := make([]*Campaign, 0, len(q.camps))
	for _, c := range q.camps {
		ids = append(ids, c)
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i].SubmitSeq < ids[k].SubmitSeq })
	for _, c := range ids {
		out = append(out, c.view())
	}
	return out
}

// depth counts campaigns waiting to run (queued) and in flight
// (leased/running); used by /readyz and the queue-depth gauge.
func (q *queue) depth() (queued, inflight int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depthLocked()
}

// depthLocked is depth for callers already holding q.mu.
func (q *queue) depthLocked() (queued, inflight int) {
	for _, c := range q.camps {
		switch c.State {
		case StateQueued:
			queued++
		case StateLeased, StateRunning:
			inflight++
		}
	}
	return
}
