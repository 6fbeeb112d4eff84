// Command stlserver is the crash-only campaign control plane: a
// long-running HTTP service that accepts STL compaction campaigns,
// runs them (optionally across a distributed stlworker fleet), and
// survives being killed at any instant.
//
// Usage:
//
//	stlserver -state DIR [-listen :9200] [-name NAME]
//	          [-workers-addr HOST:PORT,...] [-max-active N]
//	          [-tenant-quota N] [-heartbeat D] [-lease-ttl D]
//	          [-drain-grace D] [-sim-workers N] [-stage-timeout D]
//	          [-metrics-addr ADDR] [-trace-out FILE] [-trace-max-bytes N]
//	          [-trace-keep N] [-log-json] [-failpoints SPEC]
//
// The API:
//
//	POST /api/v1/campaigns               submit {"id": ..., "spec": {...}}
//	GET  /api/v1/campaigns               list campaigns
//	GET  /api/v1/campaigns/{id}          campaign state
//	POST /api/v1/campaigns/{id}/cancel   request cancellation
//	GET  /api/v1/campaigns/{id}/results  the compacted STL (verified)
//	GET  /livez, /readyz                 health (readyz carries queue JSON)
//
// Everything durable lives under -state: the campaign queue journal
// (every state transition is journaled before it is visible), the
// per-campaign run WALs (finished PTPs are never re-simulated), and
// the content-addressed result cache (checksummed artifacts, verified
// on every read). Kill the process — even kill -9 — and restart it on
// the same -state: it replays the journal, re-adopts its campaigns at
// their last journaled stage, and finishes them. A second stlserver
// pointed at the same -state waits for the first one's lease to expire
// and then takes over the same way.
//
// Submissions are attributed to tenants; each tenant has a concurrent
// campaign quota — a submit over quota gets 429 + Retry-After — and a
// retry budget bounding automatic re-execution of its transiently
// failed campaigns. On SIGTERM the server drains: intake stops,
// /readyz flips, in-flight campaigns get -drain-grace to finish and
// are checkpoint-canceled (resumable) past it. A second signal exits
// immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gpustl"
	"gpustl/internal/failpoint"
	"gpustl/internal/obs"
	"gpustl/internal/server"
)

func main() {
	var (
		listen      = flag.String("listen", ":9200", "address to serve the campaign API on")
		stateDir    = flag.String("state", "", "durable state directory (journal, run WALs, result cache); required")
		name        = flag.String("name", "", "server name in leases and logs (default: host#pid)")
		workers     = flag.String("workers-addr", "", "comma-separated stlworker addresses; distribute fault simulations across them")
		maxActive   = flag.Int("max-active", 2, "campaigns executing concurrently")
		tenantQuota = flag.Int64("tenant-quota", 8, "max live (queued+running) campaigns per tenant; past it submits get 429")
		heartbeat   = flag.Duration("heartbeat", time.Second, "lease renewal period")
		leaseTTL    = flag.Duration("lease-ttl", 0, "lease validity after the last renewal (default 3x heartbeat)")
		drainGrace  = flag.Duration("drain-grace", 30*time.Second, "how long a SIGTERM drain waits before checkpoint-canceling campaigns")
		simWorkers  = flag.Int("sim-workers", 4, "per-campaign fault-simulation parallelism")
		stageTO     = flag.Duration("stage-timeout", 0, "per-stage watchdog timeout per PTP (0 = off)")
		verifyFrac  = flag.Float64("verify-frac", 0, "fraction of shards re-executed for Byzantine verification (fleet mode)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (empty = off)")
		traceOut    = flag.String("trace-out", "", "write span trace JSONL here (campaign executions, shards); merge with stltrace")
		traceMaxB   = flag.Int64("trace-max-bytes", 64<<20, "rotate the trace file past this size (0 = unbounded)")
		traceKeep   = flag.Int("trace-keep", 2, "rotated trace files kept (trace.1 .. trace.N)")
		logJSON     = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		failpoints  = flag.String("failpoints", "", "arm fault-injection sites for every campaign this server runs: name=action[|p=|after=|times=|seed=],... (chaos drills)")
	)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, "stlserver", slog.LevelInfo, *logJSON)
	if *stateDir == "" {
		logger.Error("-state is required")
		os.Exit(2)
	}
	// The -failpoints set rides the root ctx into Run (every campaign
	// this server executes) and every API request (BaseContext below).
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
			host = "stlserver"
		}
		*name = fmt.Sprintf("%s#%d", host, os.Getpid())
	}

	reg := gpustl.NewMetricsRegistry()
	obs.RegisterBuildInfo(reg, "stlserver")

	// The tracer records campaign execution spans (remote children of
	// the submitting client's span when the submit carried trace
	// context) plus the coordinator's per-shard spans. Size-bounded:
	// rotated past -trace-max-bytes, keeping -trace-keep old files.
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

	// The fleet factory: shared HTTP transports, one Coordinator per
	// campaign execution. Coordinators are sequential-use; transports
	// are the shared, long-lived part and are never closed per
	// campaign.
	var fleet func() (gpustl.FaultSimulator, error)
	if *workers != "" {
		var transports []gpustl.WorkerTransport
		for _, addr := range strings.Split(*workers, ",") {
			if addr = strings.TrimSpace(addr); addr != "" {
				transports = append(transports, gpustl.NewWorkerTransport(addr))
			}
		}
		logf := obs.Logf(logger, slog.LevelInfo)
		fleet = func() (gpustl.FaultSimulator, error) {
			return gpustl.NewDistCoordinator(gpustl.DistOptions{
				Logf:           logf,
				Metrics:        reg,
				Tracer:         tracer,
				VerifyFraction: *verifyFrac,
			}, transports...)
		}
		logger.Info("fleet configured", "workers", len(transports))
	}

	srv := server.New(server.Options{
		StateDir:       *stateDir,
		Holder:         *name,
		MaxActive:      *maxActive,
		TenantQuota:    *tenantQuota,
		HeartbeatEvery: *heartbeat,
		LeaseTTL:       *leaseTTL,
		DrainGrace:     *drainGrace,
		SimWorkers:     *simWorkers,
		StageTimeout:   *stageTO,
		Fleet:          fleet,
		Metrics:        reg,
		Tracer:         tracer,
		Logf:           obs.Logf(logger, slog.LevelInfo),
	})

	hsrv := &http.Server{
		Addr:        *listen,
		Handler:     srv.Handler(),
		BaseContext: func(net.Listener) context.Context { return root },
	}
	var msrv *http.Server
	if *metricsAddr != "" {
		msrv = &http.Server{Addr: *metricsAddr, Handler: obs.NewDebugMux(reg, "gpustl_server")}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("metrics listener failed", "addr", *metricsAddr, "err", err)
			}
		}()
		logger.Info("metrics listening", "addr", *metricsAddr)
	}

	// SIGINT/SIGTERM cancel ctx → the server drains; a second signal
	// (stop() restores default handling) kills the process.
	ctx, stop := signal.NotifyContext(root, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Background telemetry: the tracer flushes every 15s so a kill -9
	// loses at most that much span history. It stops with bgCtx; the
	// final flush below covers the drain path.
	bgCtx, bgStop := context.WithCancel(context.Background())
	defer bgStop()
	if tracer != nil {
		go func() {
			tick := time.NewTicker(15 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-bgCtx.Done():
					return
				case <-tick.C:
					flushTrace()
				}
			}
		}()
	}

	httpErr := make(chan error, 1)
	go func() { httpErr <- hsrv.ListenAndServe() }()
	logger.Info("control plane listening", "name", *name, "addr", *listen, "state", *stateDir)

	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Run(ctx) }()

	exit := 0
	select {
	case err := <-httpErr:
		logger.Error("listener failed", "err", err)
		srv.Kill()
		<-srvErr
		exit = 1
	case err := <-srvErr:
		// Run returned on its own: a fail-stop crash (journal append
		// failure, lease loss) or a drain completed.
		if err != nil {
			logger.Error("server stopped", "err", err)
			exit = 1
		}
	case <-ctx.Done():
		stop()
		logger.Info("draining: intake stopped, waiting for in-flight campaigns", "grace", *drainGrace)
		if err := <-srvErr; err != nil {
			logger.Error("drain failed", "err", err)
			exit = 1
		} else {
			logger.Info("drained")
		}
	}

	// Final span flush on every exit path — notably the SIGTERM drain,
	// where campaigns that finished during the grace period ended spans
	// after the last periodic flush. Without this the tail of the trace
	// (often the interesting part: what was slow enough to still be
	// running at drain time) never reaches disk.
	bgStop()
	flushTrace()

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if msrv != nil {
		msrv.Shutdown(shutCtx)
	}
	hsrv.Shutdown(shutCtx)
	os.Exit(exit)
}
