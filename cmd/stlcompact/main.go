// Command stlcompact runs the five-stage compaction method over the STL's
// PTPs for one target module, with cross-PTP fault dropping, and prints a
// Table II/III-style report.
//
// Usage:
//
//	stlcompact -target DU|SP|SFU [-n N] [-seed S] [-faults K] [-reverse]
//	           [-instr] [-baseline] [-load FILE.json] [-save DIR]
//	           [-checkpoint DIR] [-stage-timeout D] [-fctol PTS]
//	           [-max-ptp-retries N] [-fsck] [-deadline D]
//	           [-workers-addr HOST:PORT,HOST:PORT,...] [-verify-frac F]
//	           [-retry-budget F] [-retry-burst N]
//	           [-trace-out FILE.jsonl] [-metrics-out FILE.json] [-log-json]
//	           [-cpuprofile FILE] [-memprofile FILE] [-failpoints SPEC]
//
// With -load, the PTPs are read from a saved STL file (see -save and the
// gpustl.WriteSTL format) instead of being generated.
//
// With -workers-addr, every fault simulation is sharded across the given
// stlworker daemons instead of running in-process. Results are identical
// by contract; a worker that crashes, straggles or corrupts replies is
// retried, hedged or declared dead, and a PTP whose campaign still
// cannot complete reverts to its original form while the run continues.
// With -verify-frac F, that fraction of shards is re-executed on a
// second worker and settled by checksum vote: a worker returning
// plausible-but-wrong results (Byzantine) is outvoted, quarantined and
// blacklisted for the rest of the run (see docs/ROBUSTNESS.md).
//
// With -failpoints, named fault-injection sites are armed for this
// campaign's run, for chaos drills (same spec syntax as stlworker; see
// internal/failpoint).
//
// With -deadline, the whole campaign is bounded: the deadline
// propagates through every tier down to the workers (X-Gpustl-Deadline
// header), so nothing burns cycles once time is up, and a checkpointed
// campaign that hits it resumes on the next invocation. The overload
// knobs bound distributed retry behavior: -retry-budget caps retries to
// a fraction of dispatches (plus a -retry-burst bank); a worker that
// fails 5 times in a row is routed around until a single probe proves
// it healthy (see docs/ROBUSTNESS.md, "Worker health"). A campaign
// stopped by overload or deadline exits with a "transient" note —
// re-run with the same -checkpoint to resume; the journal holds
// everything finished.
//
// The compaction runs under the resilience layer: a PTP that fails (or
// whose compacted form loses more than -fctol points of fault coverage)
// is kept in its original form and the run continues; a PTP whose
// pipeline crashes or stalls is retried up to -max-ptp-retries times and
// then quarantined (original kept, campaign continues). With
// -checkpoint, every finished PTP is appended to a checksummed, fsync'd
// write-ahead journal (campaign.wal) and an interrupted run (Ctrl-C,
// SIGTERM, power loss) resumes after the last intact record. Whatever
// happens, the report and -save outputs reflect every PTP finished so
// far.
//
// With -cpuprofile/-memprofile, pprof profiles of the whole campaign are
// written — the way the fault-simulation engine's hot path is measured
// outside microbenchmarks (see docs/PERFORMANCE.md).
//
// With -trace-out, the campaign -> PTP -> stage span hierarchy is
// written as a JSONL trace (atomically — an interrupted run still
// leaves a parseable trace, with in-flight spans marked interrupted)
// and a per-stage latency / critical-path summary prints after the
// report. With -metrics-out, the final metrics snapshot (simulation
// throughput, outcome counters, coordinator stats) is written as JSON.
// While running, a TTY gets a live progress line (PTPs done/
// quarantined, current stage, ETA); a pipe gets one plain line per PTP.
//
// With -fsck, nothing is compacted: the journal in -checkpoint and the
// -save artifacts are verified — record CRCs and sequence, the config
// hash against the given flags, the journaled PTP hashes against the
// (generated or -load'ed) library, and artifact checksum sidecars —
// and the findings are printed, exiting non-zero on any issue.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"gpustl"
	"gpustl/internal/failpoint"
	"gpustl/internal/obs"
	"gpustl/internal/prof"
)

// logger is the process-wide structured logger, configured in main
// after flags are parsed.
var logger *slog.Logger

func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}

func main() {
	var (
		target     = flag.String("target", "DU", "target module: DU|SP|SFU")
		n          = flag.Int("n", 120, "PTP scale (SB count / ATPG sample base)")
		seed       = flag.Int64("seed", 1, "seed")
		nFaults    = flag.Int("faults", 4000, "fault-list sample (0 = full list)")
		reverse    = flag.Bool("reverse", false, "apply patterns in reverse order (paper: SFU_IMM)")
		instrG     = flag.Bool("instr", false, "instruction-granularity removal (ablation)")
		baseline   = flag.Bool("baseline", false, "also run the iterative prior-work baseline")
		loadPath   = flag.String("load", "", "load PTPs from a saved STL JSON file instead of generating")
		saveDir    = flag.String("save", "", "write original and compacted PTPs to this directory")
		ckDir      = flag.String("checkpoint", "", "persist progress here and resume interrupted runs")
		stageTO    = flag.Duration("stage-timeout", 0, "per-stage watchdog timeout (0 = off)")
		fcTol      = flag.Float64("fctol", 5, "max FC loss (points) before a compacted PTP reverts")
		retries    = flag.Int("max-ptp-retries", 2, "retries before a crashing/stalling PTP is quarantined")
		fsck       = flag.Bool("fsck", false, "verify checkpoint journal and -save artifacts instead of compacting")
		workers    = flag.String("workers-addr", "", "comma-separated stlworker addresses; distribute fault simulations across them")
		traceOut   = flag.String("trace-out", "", "write the campaign's JSONL span trace here and print a per-stage summary")
		metricsOut = flag.String("metrics-out", "", "write the final metrics snapshot (JSON) here")
		logJSON    = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		verifyFrac = flag.Float64("verify-frac", 0, "fraction of shards re-executed on a second worker and settled by checksum vote (Byzantine tolerance; 0 = trust, 1 = verify all)")
		failpoints = flag.String("failpoints", "", "arm fault-injection sites for this campaign: name=action[|p=|after=|times=|seed=],... (chaos drills)")
		deadline   = flag.Duration("deadline", 0, "whole-campaign deadline, propagated down to workers (0 = none)")
		retryBud   = flag.Float64("retry-budget", 0, "distributed retries earned per dispatch (0 = default 0.1, negative = unlimited)")
		retryBurst = flag.Int("retry-burst", 0, "banked retry tokens before the budget bites (0 = default 64)")
	)
	flag.Parse()
	logger = obs.NewLogger(os.Stderr, "stlcompact", slog.LevelInfo, *logJSON)

	var fps *failpoint.Set
	if *failpoints != "" {
		var err error
		if fps, err = failpoint.ParseSet(*failpoints); err != nil {
			fatalf("bad -failpoints: %v", err)
		}
		logger.Info("failpoints armed", "names", fps.Names())
	}

	stopCPU, err := prof.Start(*cpuProf)
	if err != nil {
		fatalf("%v", err)
	}
	profFlush := func() {
		stopCPU()
		if err := prof.WriteHeap(*memProf); err != nil {
			logger.Error(err.Error())
		}
	}

	var kind gpustl.ModuleKind
	switch *target {
	case "DU":
		kind = gpustl.ModuleDU
	case "SP":
		kind = gpustl.ModuleSP
	case "SFU":
		kind = gpustl.ModuleSFU
	default:
		fatalf("unknown target %q", *target)
	}

	// Validate output directories before any simulation work, so a typo
	// fails in milliseconds instead of after the compaction.
	for _, dir := range []string{*saveDir, *ckDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o777); err != nil {
			fatalf("output directory: %v", err)
		}
	}

	// Ctrl-C / SIGTERM cancel the run cleanly: the in-flight PTP aborts,
	// the report, -save, -trace-out and -metrics-out outputs flush with
	// everything finished so far, and -checkpoint lets the next
	// invocation resume.
	// The -failpoints set rides the root ctx: the campaign's sites
	// evaluate against it.
	ctx, stop := signal.NotifyContext(failpoint.WithSet(context.Background(), fps), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mod, err := gpustl.BuildModule(kind)
	if err != nil {
		fatalf("%v", err)
	}
	var faults []gpustl.Fault
	if *nFaults > 0 {
		faults = gpustl.SampleFaults(mod, *nFaults, *seed)
	} else {
		faults = gpustl.AllFaults(mod)
	}

	var ptps []*gpustl.PTP
	if *loadPath != "" {
		// ReadSTLFile verifies the checksum sidecar when one exists, so
		// a silently corrupted library fails here, not mid-campaign.
		lib, err := gpustl.ReadSTLFile(*loadPath)
		if err != nil {
			fatalf("%v", err)
		}
		for _, p := range lib.PTPs {
			if p.Target == kind {
				ptps = append(ptps, p)
			}
		}
		if len(ptps) == 0 {
			fatalf("no PTPs targeting %v in %s", kind, *loadPath)
		}
	} else {
		switch kind {
		case gpustl.ModuleDU:
			ptps = []*gpustl.PTP{
				gpustl.GenerateIMM(*n, *seed+1),
				gpustl.GenerateMEM(*n, *seed+2),
				gpustl.GenerateCNTRL(max(2, *n/10), *seed+3),
			}
		case gpustl.ModuleSP:
			opt := gpustl.DefaultATPGOptions(*seed + 4)
			opt.SampleFaults = *n * 10
			res := gpustl.GenerateATPG(mod, opt)
			tpgen, dropped := gpustl.ConvertTPGEN(res, *seed+4)
			logger.Info("TPGEN generated", "patterns", len(res.Patterns), "unconvertible", dropped)
			ptps = []*gpustl.PTP{tpgen, gpustl.GenerateRAND(*n, *seed+5)}
		case gpustl.ModuleSFU:
			opt := gpustl.DefaultATPGOptions(*seed + 6)
			opt.SampleFaults = *n * 10
			res := gpustl.GenerateATPG(mod, opt)
			sfu, dropped := gpustl.ConvertSFUIMM(res, *seed+6)
			logger.Info("SFU_IMM generated", "patterns", len(res.Patterns), "unconvertible", dropped)
			ptps = []*gpustl.PTP{sfu}
		}
	}

	if *fsck {
		if *ckDir == "" {
			fatalf("-fsck requires -checkpoint DIR (pass the campaign's original flags so the config hash matches)")
		}
		code := runFsck(kind, mod, faults, ptps, runFlags{
			reverse: *reverse, instrG: *instrG,
			saveDir: *saveDir, ckDir: *ckDir,
		})
		profFlush()
		os.Exit(code)
	}

	metrics := gpustl.NewMetricsRegistry()
	obs.RegisterBuildInfo(metrics, "stlcompact")
	// One tracer for the whole process so the coordinator's shard spans
	// land in the same file (and trace) as the campaign/PTP/stage spans.
	var tracer *gpustl.SpanTracer
	if *traceOut != "" {
		tracer = gpustl.NewSpanTracer(*traceOut)
	}
	var sim gpustl.FaultSimulator
	var co *gpustl.DistCoordinator
	if *workers != "" {
		var transports []gpustl.WorkerTransport
		for _, addr := range strings.Split(*workers, ",") {
			if addr = strings.TrimSpace(addr); addr != "" {
				transports = append(transports, gpustl.NewWorkerTransport(addr))
			}
		}
		var err error
		co, err = gpustl.NewDistCoordinator(gpustl.DistOptions{
			Logf:           obs.Logf(logger, slog.LevelInfo),
			Metrics:        metrics,
			Tracer:         tracer,
			VerifyFraction: *verifyFrac,
			RetryBudget:    *retryBud,
			RetryBurst:     *retryBurst,
		}, transports...)
		if err != nil {
			fatalf("%v", err)
		}
		logger.Info("distributing fault simulations", "workers", len(transports))
		sim = co
	}

	code := runCompaction(ctx, kind, mod, faults, ptps, runFlags{
		reverse: *reverse, instrG: *instrG, baseline: *baseline,
		saveDir: *saveDir, ckDir: *ckDir, stageTO: *stageTO, fcTol: *fcTol,
		retries: *retries, sim: sim, deadline: *deadline,
		metrics: metrics, tracer: tracer, traceOut: *traceOut, metricsOut: *metricsOut,
	})
	if co != nil {
		co.Close()
	}
	profFlush()
	os.Exit(code)
}

type runFlags struct {
	reverse, instrG, baseline bool
	saveDir, ckDir            string
	stageTO                   time.Duration
	deadline                  time.Duration
	fcTol                     float64
	retries                   int
	sim                       gpustl.FaultSimulator

	metrics              *gpustl.MetricsRegistry
	tracer               *gpustl.SpanTracer
	traceOut, metricsOut string
}

// buildCampaign assembles the shared inputs of a compaction or fsck run.
func buildCampaign(kind gpustl.ModuleKind, mod *gpustl.Module, faults []gpustl.Fault,
	ptps []*gpustl.PTP, fl runFlags) (gpustl.GPUConfig, gpustl.CompactorOptions, *gpustl.ModuleSet, *gpustl.STL) {

	cfg := gpustl.DefaultGPUConfig()
	copt := gpustl.CompactorOptions{
		ReversePatterns:        fl.reverse,
		InstructionGranularity: fl.instrG,
		Simulator:              fl.sim,
		Metrics:                fl.metrics,
	}
	ms := &gpustl.ModuleSet{
		Modules: map[gpustl.ModuleKind]*gpustl.Module{kind: mod},
		Faults:  map[gpustl.ModuleKind][]gpustl.Fault{kind: faults},
	}
	return cfg, copt, ms, &gpustl.STL{PTPs: ptps}
}

// runFsck verifies the campaign journal and any -save artifacts against
// the configuration the flags describe, prints the findings, and
// returns the process exit code (non-zero on any issue).
func runFsck(kind gpustl.ModuleKind, mod *gpustl.Module, faults []gpustl.Fault,
	ptps []*gpustl.PTP, fl runFlags) int {

	cfg, copt, ms, lib := buildCampaign(kind, mod, faults, ptps, fl)
	hash, err := gpustl.CampaignConfigHash(cfg, ms, lib, copt)
	if err != nil {
		logger.Error(err.Error())
		return 1
	}
	var artifacts []string
	if fl.saveDir != "" {
		for _, name := range []string{"stl_original.json", "stl_compacted.json"} {
			path := filepath.Join(fl.saveDir, name)
			if _, err := os.Stat(path); err == nil {
				artifacts = append(artifacts, path)
			}
		}
	}
	rep, err := gpustl.FsckCampaign(fl.ckDir, hash, lib, artifacts)
	if err != nil {
		logger.Error(err.Error())
		return 1
	}
	rep.Render(os.Stdout)
	if !rep.Clean() {
		return 1
	}
	return 0
}

// runCompaction compacts the PTPs under the resilience layer and returns
// the process exit code. Even on failure or interruption it flushes the
// report, the -save outputs, the -trace-out span trace (in-flight spans
// marked interrupted) and the -metrics-out snapshot, so no completed
// work — and no telemetry about the incomplete work — is lost.
func runCompaction(ctx context.Context, kind gpustl.ModuleKind, mod *gpustl.Module,
	faults []gpustl.Fault, ptps []*gpustl.PTP, fl runFlags) int {

	cfg, copt, ms, lib := buildCampaign(kind, mod, faults, ptps, fl)

	fmt.Printf("compacting %d PTP(s) for %v (%d faults, %d gates x %d lanes)\n\n",
		len(ptps), kind, len(faults), mod.NL.NumGates(), mod.Lanes)

	tracer := fl.tracer
	prog := newProgress(os.Stderr, len(ptps))
	rep, err := gpustl.CompactWholeSTLResilient(ctx, cfg, ms, lib, copt,
		gpustl.RunnerOptions{
			CheckpointDir: fl.ckDir,
			StageTimeout:  fl.stageTO,
			Deadline:      fl.deadline,
			FCTolerance:   fl.fcTol,
			MaxPTPRetries: fl.retries,
			Logf:          obs.Logf(logger, slog.LevelInfo),
			Tracer:        tracer,
			Metrics:       fl.metrics,
			StageHook: func(ptp string, stage gpustl.Stage) error {
				prog.onStage(ptp, stage)
				return nil
			},
			OnOutcome: prog.onOutcome,
		})
	prog.finish()
	exit := 0
	if err != nil {
		// A canceled or failed run still produced outcomes for every
		// finished PTP; report them and exit non-zero after flushing.
		logger.Error("run stopped", "err", err)
		if gpustl.IsTransientFailure(err) && fl.ckDir != "" {
			logger.Info("failure is transient (overload/deadline); re-run with the same -checkpoint to resume")
		}
		exit = 1
	}
	flushTelemetry(fl, tracer)
	if rep == nil || len(rep.Outcomes) == 0 {
		return 1
	}
	rep.Render(os.Stdout)
	renderTraceSummary(fl.traceOut)

	if fl.saveDir != "" {
		original := &gpustl.STL{PTPs: lib.PTPs[:len(rep.Outcomes)]}
		if werr := saveSTL(fl.saveDir, "stl_original.json", original); werr != nil {
			logger.Error(werr.Error())
			exit = 1
		}
		if werr := saveSTL(fl.saveDir, "stl_compacted.json", rep.Compacted); werr != nil {
			logger.Error(werr.Error())
			exit = 1
		}
	}

	if fl.baseline && err == nil {
		fmt.Println("\niterative baseline (one fault sim per candidate Small Block):")
		b := gpustl.NewBaseline(cfg, mod, faults)
		for _, p := range ptps {
			res, berr := b.CompactPTP(p)
			if berr != nil {
				logger.Error("baseline failed", "ptp", p.Name, "err", berr)
				exit = 1
				continue
			}
			fmt.Printf("%-8s  %4d->%-4d  %+8.2f  FC %.2f->%.2f  %4d fault sims  %10v\n",
				p.Name, res.OrigSize, res.CompSize, -res.SizeReduction(),
				res.OrigFC, res.CompFC, res.FaultSims, res.Time)
		}
	}
	return exit
}

// flushTelemetry writes the span trace and metrics snapshot. It runs on
// every exit path of a compaction — clean, failed, or interrupted — so
// a SIGINT'd campaign still leaves a parseable trace (open spans
// snapshotted with interrupted=true) and its final counters.
func flushTelemetry(fl runFlags, tracer *gpustl.SpanTracer) {
	if err := tracer.Flush(); err != nil {
		logger.Error("flushing trace", "err", err)
	} else if fl.traceOut != "" {
		logger.Info("trace written", "path", fl.traceOut)
	}
	if fl.metricsOut == "" {
		return
	}
	data, err := gpustl.MarshalMetrics(fl.metrics)
	if err == nil {
		err = os.WriteFile(fl.metricsOut, append(data, '\n'), 0o666)
	}
	if err != nil {
		logger.Error("writing metrics snapshot", "err", err)
		return
	}
	logger.Info("metrics written", "path", fl.metricsOut)
}

// renderTraceSummary prints the per-stage latency and critical-path
// summary of the trace file just flushed.
func renderTraceSummary(path string) {
	if path == "" {
		return
	}
	events, err := gpustl.ReadTraceFile(path)
	if err != nil {
		logger.Error("reading trace back", "err", err)
		return
	}
	fmt.Println()
	gpustl.SummarizeTrace(events).Render(os.Stdout)
}

// saveSTL writes one STL JSON file into dir, durably (fsync'd atomic
// replace) and with a checksum sidecar for later -fsck verification.
func saveSTL(dir, name string, lib *gpustl.STL) error {
	path := filepath.Join(dir, name)
	if err := gpustl.WriteSTLFile(path, lib); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
