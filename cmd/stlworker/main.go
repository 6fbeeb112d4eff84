// Command stlworker is the fault-simulation worker daemon of the
// distributed campaign service. It serves shard requests over HTTP:
// POST /simulate executes one shard (a fault subset plus the pattern
// stream, sent as one fixed-width binary frame) on an in-process
// simulator and answers with a JSON reply; GET /healthz answers the
// coordinator's heartbeats.
//
// Usage:
//
//	stlworker -listen :9123 [-name NAME] [-metrics-addr :9124] [-log-json]
//	          [-max-concurrent N] [-max-queue N] [-max-inflight-bytes B]
//	          [-retry-after D] [-trace-out FILE] [-trace-max-bytes N]
//	          [-trace-keep N]
//
// With -trace-out, shard executions whose requests carry X-Gpustl-Trace
// context are recorded as remote child spans of the submitting
// campaign's trace; merge the file with the server's and coordinator's
// via stltrace for the cross-process waterfall.
//
// Point stlcompact's -workers-addr at one or more daemons to
// distribute the campaign. Workers are stateless — the
// coordinator retries, hedges and redistributes shards — so daemons can
// be added, restarted or killed mid-run.
//
// With -max-concurrent, at most N shards simulate at once and up to
// -max-queue more wait in a bounded accept queue; with
// -max-inflight-bytes, admitted request bodies are capped by summed
// size, counted in binary shard-frame bytes: 32 per pattern and 8 per
// fault, about 2.7× and 6× fewer than the JSON bodies of earlier
// releases (/simulate requires a Content-Length). A shard past either
// bound is bounced immediately with 429 + Retry-After (-retry-after
// tunes the hint) — backpressure, not failure: the coordinator
// reroutes it without charging an attempt.
// /livez answers liveness (always OK while the process serves HTTP);
// /readyz answers readiness (503 while draining or saturated), and
// both statuses carry a JSON body with the worker's queue depth,
// in-flight shard count and draining flag. A saturated worker is
// not-ready but live — orchestrators should stop routing to it, never
// kill it.
//
// On SIGTERM/SIGINT the worker drains gracefully: in-flight shards
// finish, new ones are rejected with 503 + X-Gpustl-Draining (the
// coordinator redistributes them without charging a failure), health
// checks go unhealthy, and then the process exits. A second signal
// aborts immediately.
//
// With -failpoints, named fault-injection sites are armed for every
// shard request this worker serves (same spec syntax as stlcompact; see
// internal/failpoint) — the knob chaos drills use to make a live worker
// lie, stall, freeze or drop replies.
//
// With -metrics-addr, a second listener serves the operator endpoints:
// /metrics (Prometheus text: shards served, faults/patterns/detections,
// service latency histogram), /debug/vars (expvar JSON) and
// /debug/pprof/* (live profiling).
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpustl"
	"gpustl/internal/failpoint"
	"gpustl/internal/obs"
)

func main() {
	var (
		listen      = flag.String("listen", ":9123", "address to serve shard requests on")
		name        = flag.String("name", "", "worker name in replies and logs (default: host:listen)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (empty = off)")
		logJSON     = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		failpoints  = flag.String("failpoints", "", "arm fault-injection sites for every shard this worker serves: name=action[|p=|after=|times=|seed=],... (chaos drills)")
		maxConc     = flag.Int("max-concurrent", 0, "max shards simulating at once (0 = unlimited)")
		maxQueue    = flag.Int("max-queue", 0, "bounded accept queue beyond -max-concurrent; past it shards bounce with 429")
		maxBytes    = flag.Int64("max-inflight-bytes", 0, "cap summed shard-frame bytes of admitted shards: 32 per pattern, 8 per fault, about 2.7x fewer than JSON bodies (0 = unlimited)")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint sent with 429 bounces (whole seconds)")
		traceOut    = flag.String("trace-out", "", "write span trace JSONL here (remote shard spans); merge with stltrace")
		traceMaxB   = flag.Int64("trace-max-bytes", 64<<20, "rotate the trace file past this size (0 = unbounded)")
		traceKeep   = flag.Int("trace-keep", 2, "rotated trace files kept (trace.1 .. trace.N)")
	)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, "stlworker", slog.LevelInfo, *logJSON)

	// The -failpoints set rides every request's ctx (BaseContext below):
	// this worker's shards, and no other process's, see its faults.
	var fps *failpoint.Set
	if *failpoints != "" {
		var err error
		if fps, err = failpoint.ParseSet(*failpoints); err != nil {
			logger.Error("bad -failpoints", "err", err)
			os.Exit(2)
		}
		logger.Info("failpoints armed", "names", fps.Names())
	}
	root := failpoint.WithSet(context.Background(), fps)

	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "stlworker"
		}
		*name = host + *listen
	}

	reg := gpustl.NewMetricsRegistry()
	obs.RegisterBuildInfo(reg, "stlworker")
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracerOptions(*traceOut, obs.TracerOptions{
			MaxBytes: *traceMaxB, KeepFiles: *traceKeep,
		})
	}
	flushTrace := func() {
		if tracer == nil {
			return
		}
		if err := tracer.Flush(); err != nil {
			logger.Error("trace flush failed", "path", *traceOut, "err", err)
		}
	}
	handler := gpustl.NewWorkerHandlerOptions(*name, gpustl.WorkerServiceOptions{
		MaxConcurrent:    *maxConc,
		MaxQueue:         *maxQueue,
		MaxInflightBytes: *maxBytes,
		RetryAfter:       *retryAfter,
		Metrics:          reg,
		Tracer:           tracer,
		Logf:             obs.Logf(logger, slog.LevelInfo),
	})
	if *maxConc > 0 || *maxBytes > 0 {
		logger.Info("backpressure armed",
			"max_concurrent", *maxConc, "max_queue", *maxQueue,
			"max_inflight_bytes", *maxBytes, "retry_after", *retryAfter)
	}
	srv := &http.Server{
		Addr:        *listen,
		Handler:     handler,
		BaseContext: func(net.Listener) context.Context { return root },
	}

	var msrv *http.Server
	if *metricsAddr != "" {
		msrv = &http.Server{
			Addr:    *metricsAddr,
			Handler: gpustl.NewDebugMux(reg, "gpustl_worker"),
		}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("metrics listener failed", "addr", *metricsAddr, "err", err)
			}
		}()
		logger.Info("metrics listening", "addr", *metricsAddr)
	}

	// SIGINT/SIGTERM start a graceful drain: in-flight shards finish,
	// new ones get 503 + X-Gpustl-Draining (the coordinator retries
	// them elsewhere without charging a failure), health checks go
	// unhealthy so heartbeats steer new work away, then the listeners
	// shut down. A second signal kills the process immediately.
	ctx, stop := signal.NotifyContext(root, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("worker listening", "name", *name, "addr", *listen)

	// Periodic span flush so a hard kill loses at most 15s of shard
	// spans; the post-drain flush below writes the tail.
	flushDone := make(chan struct{})
	if tracer != nil {
		go func() {
			tick := time.NewTicker(15 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-flushDone:
					return
				case <-tick.C:
					flushTrace()
				}
			}
		}()
	}

	select {
	case err := <-errc:
		logger.Error("listener failed", "err", err)
		flushTrace()
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("draining: finishing in-flight shards, rejecting new ones")
	handler.StartDrain()
	stop()
	drained := make(chan struct{})
	go func() { handler.DrainWait(); close(drained) }()
	select {
	case <-drained:
		logger.Info("drained")
	case <-time.After(30 * time.Second):
		logger.Error("drain timed out after 30s; shutting down anyway")
	}
	// Flush after the drain: the in-flight shards that just finished
	// ended their spans after the last periodic flush.
	close(flushDone)
	flushTrace()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if msrv != nil {
		msrv.Shutdown(shutCtx)
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Error("shutdown failed", "err", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	}
}
