package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"

	"gpustl/internal/obs"
)

// submitReq is the POST /api/v1/campaigns body.
type submitReq struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// readyzBody is the JSON body both the 200 and the 503 carry, so load
// balancers and humans see the same queue depth / in-flight / draining
// picture regardless of which side of ready the server is on.
type readyzBody struct {
	Server     string `json:"server"`
	Ready      bool   `json:"ready"`
	Draining   bool   `json:"draining"`
	QueueDepth int    `json:"queue_depth"`
	InFlight   int    `json:"in_flight"`
}

// Handler returns the control-plane HTTP API:
//
//	POST /api/v1/campaigns               submit {id, spec} (idempotent by id)
//	GET  /api/v1/campaigns               list campaigns
//	GET  /api/v1/campaigns/{id}          one campaign's state
//	POST /api/v1/campaigns/{id}/cancel   request cancellation
//	GET  /api/v1/campaigns/{id}/results  the verified compacted STL
//	GET  /livez                          process liveness (always 200)
//	GET  /readyz                         readiness + queue JSON (200/503)
//
// Saturation answers 429 with Retry-After; a draining or crashed
// server answers 503.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		if !s.storeReady(w) {
			return
		}
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("GET /api/v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !s.storeReady(w) {
			return
		}
		v, ok := s.Get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no campaign %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("POST /api/v1/campaigns/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if !s.storeReady(w) {
			return
		}
		v, err := s.Cancel(r.PathValue("id"))
		switch {
		case errors.Is(err, os.ErrNotExist):
			writeErr(w, http.StatusNotFound, fmt.Errorf("no campaign %q", r.PathValue("id")))
		case err != nil:
			writeErr(w, http.StatusInternalServerError, err)
		default:
			writeJSON(w, http.StatusOK, v)
		}
	})
	mux.HandleFunc("GET /api/v1/campaigns/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		if !s.storeReady(w) {
			return
		}
		b, err := s.Result(r.PathValue("id"))
		switch {
		case errors.Is(err, os.ErrNotExist):
			writeErr(w, http.StatusNotFound, fmt.Errorf("no campaign %q", r.PathValue("id")))
		case errors.Is(err, errNotCached):
			// The artifact exists in the journal's eyes but failed
			// verification (or vanished). 503, never corrupt bytes.
			writeErr(w, http.StatusServiceUnavailable, err)
		case err != nil:
			writeErr(w, http.StatusConflict, err)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.Write(b)
		}
	})
	mux.HandleFunc("GET /livez", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"alive": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		queued, inflight := s.Depth()
		body := readyzBody{
			Server:     s.opt.Holder,
			Ready:      s.Ready(),
			Draining:   s.Draining(),
			QueueDepth: queued,
			InFlight:   inflight,
		}
		status := http.StatusOK
		if !body.Ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, body)
	})
	if m := s.opt.Metrics; m != nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			m.WritePrometheus(w)
		})
	}
	return mux
}

// storeReady 503s requests that arrive before the journal is replayed
// or after a crash — the in-memory state is absent or untrustworthy.
func (s *Server) storeReady(w http.ResponseWriter) bool {
	if s.q == nil || s.killed.Load() {
		writeErr(w, http.StatusServiceUnavailable, ErrNotAccepting)
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.storeReady(w) {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxSpecBytes+4096))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var req submitReq
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding submit body: %w", err))
		return
	}
	// Trace context rides the submit: the campaign's execution span (on
	// this server or a crash successor) becomes a child of the client's
	// span. A garbled header is dropped at execution time, never fatal.
	v, err := s.SubmitTrace(req.ID, &req.Spec, r.Header.Get(obs.TraceHeader))
	switch {
	case errors.Is(err, ErrOverQuota):
		// Retry-After is the lease TTL rounded up: by then either a
		// campaign finished or the tenant should back off harder.
		w.Header().Set("Retry-After", strconv.Itoa(int(s.opt.LeaseTTL.Seconds())+1))
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrSpecConflict):
		writeErr(w, http.StatusConflict, err)
	case errors.Is(err, ErrNotAccepting):
		writeErr(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, v)
	}
}
