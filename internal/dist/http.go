package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpustl/internal/obs"
	"gpustl/internal/overload"
)

// Wire paths of the worker daemon. /healthz is the heartbeat the
// coordinator pings (unhealthy only while draining, for back-compat);
// /livez and /readyz are the orchestrator-facing split: liveness says
// "don't kill me", readiness says "don't route to me" — a draining or
// saturated worker is not-ready but very much alive.
const (
	simulatePath = "/simulate"
	healthPath   = "/healthz"
	livezPath    = "/livez"
	readyzPath   = "/readyz"
)

// drainingHeader marks a worker's 503 as "draining, retry elsewhere"
// rather than a failure: the worker received SIGTERM and is finishing
// its in-flight shards.
const drainingHeader = "X-Gpustl-Draining"

// deadlineHeader carries the dispatch context's deadline to the worker
// as unix nanoseconds, so a worker never burns cycles simulating a
// shard whose campaign already timed out: an expired deadline is
// rejected with 504 before any work, and an unexpired one bounds the
// worker-side simulation even if the client's cancel never arrives.
const deadlineHeader = "X-Gpustl-Deadline"

// ErrUnavailable marks a dispatch rejected by a draining worker. The
// coordinator redistributes the shard without charging a failed attempt
// — a clean shutdown is scheduling, not an error.
var ErrUnavailable = errors.New("dist: worker draining, shard not accepted")

// ErrBusy marks a dispatch rejected by a saturated worker (HTTP 429):
// backpressure, not failure. The coordinator reroutes the shard without
// charging a failed attempt, honoring the worker's Retry-After hint.
var ErrBusy = errors.New("dist: worker saturated, shard not accepted")

// BusyError is the concrete 429 bounce, carrying the worker's
// Retry-After hint. errors.Is(err, ErrBusy) matches it.
type BusyError struct {
	Worker string
	After  time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("dist: worker %s saturated, retry after %v", e.Worker, e.After)
}

// Is makes every BusyError match the ErrBusy sentinel.
func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// MaxReplyBytes caps how much of a worker's /simulate reply the client
// will read. A shard result is detections over at most a few thousand
// faults — far below this — so a larger reply means a broken or hostile
// worker, and the client fails that shard (the retry/hedge machinery
// takes over) instead of buffering without bound. Variable so tests can
// shrink it.
var MaxReplyBytes int64 = 64 << 20

// HTTP is the client-side Transport of a cmd/stlworker daemon: POST
// /simulate with a ShardRequest as one binary shard frame (wire.go),
// answered with a JSON ShardResult; GET /healthz for heartbeats. Request
// contexts propagate cancellation, so a hedged loser or a dead worker's
// dispatch aborts the HTTP round trip.
type HTTP struct {
	base   string
	client *http.Client
}

// NewHTTP creates a transport for a worker at addr ("host:port" or a
// full http:// URL). The client enforces no global timeout — per-shard
// deadlines come from the dispatch context.
func NewHTTP(addr string) *HTTP {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &HTTP{base: strings.TrimRight(base, "/"), client: &http.Client{}}
}

// Name implements Transport: workers are identified by their base URL.
func (t *HTTP) Name() string { return t.base }

// Simulate implements Transport.
func (t *HTTP) Simulate(ctx context.Context, req *ShardRequest) (*ShardResult, error) {
	body, err := encodeShardFrame(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+simulatePath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", frameContentType)
	if dl, ok := ctx.Deadline(); ok {
		// Propagate the dispatch deadline so the worker can refuse or
		// bound work on an already-expired campaign.
		hreq.Header.Set(deadlineHeader, strconv.FormatInt(dl.UnixNano(), 10))
	}
	if sc := obs.SpanFromContext(ctx).Context(); sc.Valid() {
		// Propagate trace context so the worker's execution span joins
		// the submitting campaign's trace as a remote child.
		hreq.Header.Set(obs.TraceHeader, sc.Header())
	}
	hres, err := t.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("dist: worker %s: %w", t.base, err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 4096))
		if hres.StatusCode == http.StatusServiceUnavailable && hres.Header.Get(drainingHeader) != "" {
			return nil, fmt.Errorf("dist: worker %s: %w", t.base, ErrUnavailable)
		}
		if hres.StatusCode == http.StatusTooManyRequests {
			after := time.Duration(0)
			if s, perr := strconv.Atoi(strings.TrimSpace(hres.Header.Get("Retry-After"))); perr == nil && s >= 0 {
				after = time.Duration(s) * time.Second
			}
			return nil, &BusyError{Worker: t.base, After: after}
		}
		return nil, fmt.Errorf("dist: worker %s: HTTP %d: %s",
			t.base, hres.StatusCode, strings.TrimSpace(string(msg)))
	}
	// Read through a hard size limit: one extra byte past the cap
	// distinguishes "too big" from a reply that exactly fits, and a
	// truncated body surfaces as a JSON error rather than a hang.
	lr := &io.LimitedReader{R: hres.Body, N: MaxReplyBytes + 1}
	data, err := io.ReadAll(lr)
	if err != nil {
		return nil, fmt.Errorf("dist: worker %s: reading reply: %w", t.base, err)
	}
	if int64(len(data)) > MaxReplyBytes {
		return nil, fmt.Errorf("dist: worker %s: reply exceeds %d-byte limit", t.base, MaxReplyBytes)
	}
	var res ShardResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("dist: worker %s: decoding reply: %w", t.base, err)
	}
	return &res, nil
}

// Ping implements Transport.
func (t *HTTP) Ping(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+healthPath, nil)
	if err != nil {
		return err
	}
	hres, err := t.client.Do(hreq)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(hres.Body, 1024))
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: worker %s: health HTTP %d", t.base, hres.StatusCode)
	}
	return nil
}

// Close implements Transport.
func (t *HTTP) Close() error {
	t.client.CloseIdleConnections()
	return nil
}

// WorkerOptions tunes the worker daemon's backpressure. The zero value
// disables every limit (accept everything, the pre-overload behavior).
type WorkerOptions struct {
	// MaxConcurrent bounds shards executing simultaneously; MaxQueue
	// more may wait for a slot (the bounded accept queue). A shard
	// arriving past both is answered 429 + Retry-After immediately.
	MaxConcurrent int
	MaxQueue      int
	// MaxInflightBytes bounds the summed request body bytes (shard frame
	// bytes) of admitted shards — per-request memory accounting, so a
	// burst of huge shard requests cannot OOM the worker.
	MaxInflightBytes int64
	// RetryAfter is the hint sent with 429 replies (default 1s; HTTP
	// Retry-After has whole-second granularity).
	RetryAfter time.Duration
	// Metrics receives worker-side telemetry (nil disables).
	Metrics *obs.Registry
	// Tracer, when set, opens a remote child span per shard executed
	// under an X-Gpustl-Trace header, so worker-side simulation time is
	// visible inside the submitting campaign's merged trace.
	Tracer *obs.Tracer
	// Logf receives one line per shard served (nil = silent).
	Logf func(format string, args ...any)
}

// WorkerHandler is the worker daemon's http.Handler, with the graceful
// drain machinery cmd/stlworker drives on SIGTERM: StartDrain makes the
// worker reject new shards with a retryable 503 (the coordinator
// redistributes them without charging a failure) and answer heartbeats
// unhealthy (so it stops being picked), while in-flight shards run to
// completion; DrainWait blocks until the last one has been served.
// With WorkerOptions limits it also pushes back under load: a saturated
// worker answers 429 + Retry-After, stays live on /livez, and reports
// not-ready on /readyz.
type WorkerHandler struct {
	mux      *http.ServeMux
	draining atomic.Bool
	inflight sync.WaitGroup
	// executing counts shards past admission and actually simulating —
	// the in_flight number /readyz reports.
	executing atomic.Int64
	slots     *overload.Admission // nil = unlimited concurrency
	bytes     *overload.Admission // nil = unlimited in-flight bytes
}

// QueueDepth reports shards waiting in the bounded accept queue (0
// when the worker runs unlimited).
func (h *WorkerHandler) QueueDepth() int {
	if h.slots == nil {
		return 0
	}
	return h.slots.QueueLen()
}

// Executing reports shards currently simulating.
func (h *WorkerHandler) Executing() int { return int(h.executing.Load()) }

// ServeHTTP implements http.Handler.
func (h *WorkerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// StartDrain flips the worker into draining mode: new shards are
// rejected retryably, heartbeats answer unhealthy, in-flight shards
// keep running.
func (h *WorkerHandler) StartDrain() { h.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (h *WorkerHandler) Draining() bool { return h.draining.Load() }

// DrainWait blocks until every in-flight shard accepted before
// StartDrain has been served.
func (h *WorkerHandler) DrainWait() { h.inflight.Wait() }

// Ready reports whether the worker should receive new shards: not
// draining and (when limited) not saturated past its accept queue.
// /readyz serves this; /healthz deliberately does not consider
// saturation — a heartbeat that declared a busy worker dead would
// cancel the very shards it is busy computing.
func (h *WorkerHandler) Ready() bool {
	if h.draining.Load() {
		return false
	}
	if h.slots != nil && h.slots.QueueLen() > 0 {
		return false
	}
	return true
}

// NewHandler returns the worker daemon's handler: POST /simulate
// executes a shard on an in-process Local executor (honoring the
// request's context, so a coordinator-side cancel aborts the
// simulation), GET /healthz answers heartbeats. logf (nil = silent)
// receives one line per shard served.
func NewHandler(name string, logf func(format string, args ...any)) http.Handler {
	return NewHandlerMetrics(name, logf, nil)
}

// NewHandlerMetrics is NewHandler with worker-side telemetry: per-shard
// counters (served, failed, canceled, faults, patterns, detections) and
// a service-latency histogram land in m (nil disables recording), ready
// to be exposed through the daemon's -metrics-addr endpoint.
func NewHandlerMetrics(name string, logf func(format string, args ...any), m *obs.Registry) *WorkerHandler {
	return NewHandlerOptions(name, WorkerOptions{Metrics: m, Logf: logf})
}

// NewHandlerOptions is the fully tunable constructor: NewHandlerMetrics
// plus the WorkerOptions backpressure limits.
func NewHandlerOptions(name string, o WorkerOptions) *WorkerHandler {
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	m := o.Metrics
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	// The executor carries the worker-side failpoint sites (reply
	// corruption, Byzantine mutation, delays), armed by the failpoint
	// set of each request's ctx: one ctx lookup each when disarmed.
	exec := WithFailpoints(NewLocal(name), nil)
	h := &WorkerHandler{mux: http.NewServeMux()}
	if o.MaxConcurrent > 0 {
		h.slots = overload.NewAdmission(overload.AdmissionOptions{
			Capacity: int64(o.MaxConcurrent), MaxQueue: o.MaxQueue,
			Metrics: m, Name: "worker_slots",
		})
	}
	if o.MaxInflightBytes > 0 {
		h.bytes = overload.NewAdmission(overload.AdmissionOptions{
			Capacity: o.MaxInflightBytes,
			Metrics:  m, Name: "worker_bytes",
		})
	}
	busy := func(w http.ResponseWriter, why string) {
		m.Counter("gpustl_worker_busy_replies_total").Inc()
		secs := int(o.RetryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		http.Error(w, "worker saturated ("+why+"), shard not accepted", http.StatusTooManyRequests)
	}
	h.mux.HandleFunc(healthPath, func(w http.ResponseWriter, r *http.Request) {
		m.Counter("gpustl_worker_pings_total").Inc()
		if h.draining.Load() {
			w.Header().Set(drainingHeader, "1")
			http.Error(w, "worker draining", http.StatusServiceUnavailable)
			return
		}
		// The executor's ping carries the dist.ping.error and
		// dist.worker.kill sites, so an armed worker really misses beats.
		if err := exec.Ping(r.Context()); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"worker\":%q}\n", name)
	})
	h.mux.HandleFunc(livezPath, func(w http.ResponseWriter, r *http.Request) {
		// Live as long as the process serves HTTP — draining and
		// saturation are routing concerns, not reasons to be killed.
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"worker\":%q,\"live\":true}\n", name)
	})
	h.mux.HandleFunc(readyzPath, func(w http.ResponseWriter, r *http.Request) {
		// Both the 200 and the 503 carry the same JSON body — queue
		// depth, in-flight count, draining flag — so orchestrators and
		// humans get the whole routing picture either way.
		ready := h.Ready()
		reason := ""
		if !ready {
			reason = "saturated"
			if h.draining.Load() {
				reason = "draining"
				w.Header().Set(drainingHeader, "1")
			}
		}
		body, _ := json.Marshal(struct {
			Worker     string `json:"worker"`
			Ready      bool   `json:"ready"`
			Draining   bool   `json:"draining"`
			QueueDepth int    `json:"queue_depth"`
			InFlight   int    `json:"in_flight"`
			Reason     string `json:"reason,omitempty"`
		}{name, ready, h.draining.Load(), h.QueueDepth(), h.Executing(), reason})
		w.Header().Set("Content-Type", "application/json")
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		w.Write(append(body, '\n'))
	})
	h.mux.HandleFunc(simulatePath, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		h.inflight.Add(1)
		defer h.inflight.Done()
		if h.draining.Load() {
			m.Counter("gpustl_worker_shards_rejected_total").Inc()
			w.Header().Set(drainingHeader, "1")
			http.Error(w, "worker draining, shard not accepted", http.StatusServiceUnavailable)
			return
		}
		// The body is buffered whole, so its length must be known up
		// front: that makes the byte accounting below exact.
		if r.ContentLength < 0 {
			m.Counter("gpustl_worker_bad_requests_total").Inc()
			http.Error(w, "Content-Length required", http.StatusLengthRequired)
			return
		}
		if r.ContentLength > maxFrameBytes {
			m.Counter("gpustl_worker_bad_requests_total").Inc()
			http.Error(w, fmt.Sprintf("shard frame exceeds %d bytes", maxFrameBytes), http.StatusRequestEntityTooLarge)
			return
		}
		// Memory accounting first — it never queues, so an oversized
		// burst bounces in microseconds — then the concurrency slot,
		// which may wait briefly in the bounded accept queue.
		relBytes, ok := h.bytes.TryAcquire(r.Context(), r.ContentLength)
		if !ok {
			busy(w, "in-flight bytes")
			return
		}
		defer relBytes()
		relSlot, err := h.slots.Acquire(r.Context(), 1)
		if err != nil {
			busy(w, "accept queue full")
			return
		}
		defer relSlot()
		ctx := r.Context()
		if v := r.Header.Get(deadlineHeader); v != "" {
			ns, perr := strconv.ParseInt(v, 10, 64)
			if perr != nil {
				m.Counter("gpustl_worker_bad_requests_total").Inc()
				http.Error(w, "bad "+deadlineHeader+" header", http.StatusBadRequest)
				return
			}
			dl := time.Unix(0, ns)
			if !time.Now().Before(dl) {
				// The campaign already timed out: refuse before any work.
				m.Counter("gpustl_worker_expired_total").Inc()
				http.Error(w, "shard deadline already expired", http.StatusGatewayTimeout)
				return
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, dl)
			defer cancel()
		}
		body := make([]byte, r.ContentLength)
		if _, err := io.ReadFull(r.Body, body); err != nil {
			m.Counter("gpustl_worker_bad_requests_total").Inc()
			http.Error(w, fmt.Sprintf("reading shard frame: %v", err), http.StatusBadRequest)
			return
		}
		req, err := decodeShardFrame(body)
		if err != nil {
			m.Counter("gpustl_worker_bad_requests_total").Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var span *obs.Span
		if v := r.Header.Get(obs.TraceHeader); v != "" && o.Tracer != nil {
			// Join the submitting campaign's trace as a remote child of
			// the coordinator's client-side shard span. A garbled header
			// is ignored (counted), never fabricated into a trace.
			if sc, perr := obs.ParseTraceHeader(v); perr == nil {
				span = o.Tracer.StartRemote(sc, obs.KindShard,
					fmt.Sprintf("shard-exec:%d", req.Shard))
				span.Annotate("side", "worker")
				span.Annotate("worker", name)
				span.Annotate("attempt", fmt.Sprintf("%d", req.Attempt))
				ctx = obs.ContextWithSpan(ctx, span)
				defer span.End()
			} else {
				m.Counter("gpustl_worker_bad_trace_headers_total").Inc()
			}
		}
		h.executing.Add(1)
		defer h.executing.Add(-1)
		start := time.Now()
		res, err := exec.Simulate(ctx, req)
		if err != nil {
			span.Annotate("error", err.Error())
			logf("shard %d attempt %d: %v", req.Shard, req.Attempt, err)
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, errBadShard):
				status = http.StatusBadRequest
				m.Counter("gpustl_worker_bad_requests_total").Inc()
			case r.Context().Err() != nil:
				// The coordinator canceled (hedge lost, deadline, worker
				// declared dead): the reply will not be read anyway.
				status = http.StatusServiceUnavailable
				m.Counter("gpustl_worker_shards_canceled_total").Inc()
			case ctx.Err() != nil:
				// The propagated campaign deadline expired mid-shard.
				status = http.StatusGatewayTimeout
				m.Counter("gpustl_worker_expired_total").Inc()
			default:
				m.Counter("gpustl_worker_shard_errors_total").Inc()
			}
			http.Error(w, err.Error(), status)
			return
		}
		elapsed := time.Since(start)
		m.Counter("gpustl_worker_shards_total").Inc()
		m.Counter("gpustl_worker_faults_total").Add(uint64(len(req.Faults)))
		m.Counter("gpustl_worker_patterns_total").Add(uint64(len(req.Stream)))
		m.Counter("gpustl_worker_detections_total").Add(uint64(len(res.Detections)))
		m.Histogram("gpustl_worker_shard_seconds", obs.DefLatencyBuckets()).Observe(elapsed.Seconds())
		logf("shard %d attempt %d: %d faults, %d patterns -> %d detections (%v)",
			req.Shard, req.Attempt, len(req.Faults), len(req.Stream),
			len(res.Detections), elapsed.Round(time.Millisecond))
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(res); err != nil {
			logf("shard %d attempt %d: writing reply: %v", req.Shard, req.Attempt, err)
		}
	})
	return h
}
