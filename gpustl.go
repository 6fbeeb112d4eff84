// Package gpustl is a library for building, analyzing and — above all —
// compacting Self-Test Libraries (STLs) for GPU in-field testing. It is an
// open reimplementation of the method of Guerrero-Balaguera, Rodriguez
// Condia and Sonza Reorda, "A Compaction Method for STLs for GPU in-field
// test" (DATE 2022), together with every substrate the method needs:
//
//   - a FlexGripPlus-like SIMT GPU simulator with a 52-opcode SASS-like
//     ISA, an assembler, and per-cycle tracing hooks;
//   - gate-level models of the Decoder Unit, SP datapath and SFU datapath,
//     with a bit-parallel stuck-at fault simulator and a PODEM-based ATPG;
//   - the STL itself: pseudorandom and ATPG-derived Parallel Test Programs
//     (PTPs) following the paper's Table I recipes;
//   - the five-stage compaction method (partitioning, logic tracing, one
//     fault simulation + labeling, Small-Block reduction, reassembly) and
//     the iterative prior-work baseline it is compared against;
//   - experiment drivers that regenerate the paper's Tables I–III, the
//     whole-STL summary, and ablation studies.
//
// Quick start:
//
//	env, _ := gpustl.BuildEnv(gpustl.ParamsFor(gpustl.Small))
//	t2, _ := gpustl.TableII(env) // compacts IMM, MEM, CNTRL
//	t2.Render(os.Stdout, "Decoder Unit compaction")
//
// or, one PTP at a time:
//
//	mod, _ := gpustl.BuildModule(gpustl.ModuleDU)
//	comp := gpustl.NewCompactor(gpustl.DefaultGPUConfig(), mod,
//		gpustl.AllFaults(mod), gpustl.CompactorOptions{})
//	res, _ := comp.CompactPTP(gpustl.GenerateIMM(500, 1))
//	fmt.Printf("-%.2f%% size, FC %+.2f\n", res.SizeReduction(), res.FCDiff())
//
// or a whole library, through the one whole-library entry point (one
// shared fault campaign per target module, per-PTP failure isolation and
// an FC-safety guard):
//
//	ms, _ := gpustl.NewModuleSet(lib, 0, 1)
//	rep, _ := gpustl.CompactWholeSTLResilient(ctx, gpustl.DefaultGPUConfig(),
//		ms, lib, gpustl.CompactorOptions{}, gpustl.RunnerOptions{FCTolerance: 5})
//	rep.Render(os.Stdout)
package gpustl

import (
	"context"
	"net/http"
	"time"

	"gpustl/internal/asm"
	"gpustl/internal/atpg"
	"gpustl/internal/baseline"
	"gpustl/internal/circuits"
	"gpustl/internal/core"
	"gpustl/internal/dist"
	"gpustl/internal/experiments"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/isa"
	"gpustl/internal/journal"
	"gpustl/internal/netlist"
	"gpustl/internal/obs"
	"gpustl/internal/overload"
	"gpustl/internal/ptpgen"
	"gpustl/internal/run"
	"gpustl/internal/signature"
	"gpustl/internal/stl"
	"gpustl/internal/trace"
	"gpustl/internal/vcde"
)

// ---------------------------------------------------------------------------
// ISA and assembler.

// Instruction is one decoded GPU instruction.
type Instruction = isa.Instruction

// Opcode identifies one of the 52 SASS-like instructions.
type Opcode = isa.Opcode

// Assemble parses assembly text into a program.
func Assemble(src string) ([]Instruction, error) { return asm.Assemble(src) }

// Disassemble renders a program as assembly text.
func Disassemble(prog []Instruction) string { return asm.Disassemble(prog) }

// ---------------------------------------------------------------------------
// GPU simulator.

// GPUConfig configures the simulated SM (lanes, memories, timing).
type GPUConfig = gpu.Config

// Kernel is a program plus launch configuration.
type Kernel = gpu.Kernel

// GPU is the FlexGripPlus-like simulator.
type GPU = gpu.GPU

// Monitor receives per-cycle execution events.
type Monitor = gpu.Monitor

// DefaultGPUConfig returns the paper's configuration: one SM, 8 SP cores,
// 2 SFUs.
func DefaultGPUConfig() GPUConfig { return gpu.DefaultConfig() }

// NewGPU creates a simulator; mon may be nil.
func NewGPU(cfg GPUConfig, mon Monitor) (*GPU, error) { return gpu.New(cfg, mon) }

// ---------------------------------------------------------------------------
// Gate-level modules and faults.

// ModuleKind selects a GPU module (DU, SP, SFU).
type ModuleKind = circuits.ModuleKind

// Module kinds.
const (
	ModuleDU   = circuits.ModuleDU
	ModuleSP   = circuits.ModuleSP
	ModuleSFU  = circuits.ModuleSFU
	ModuleFP32 = circuits.ModuleFP32
	ModulePIPE = circuits.ModulePIPE // sequential: fetch/decode pipeline registers
)

// Module is a gate-level netlist plus its lane count in the SM.
type Module = circuits.Module

// Fault is one stuck-at fault in one module lane.
type Fault = fault.Fault

// FaultCampaign is a persistent fault-simulation context with dropping.
type FaultCampaign = fault.Campaign

// GroupCoverage is the per-functional-group campaign outcome returned by
// FaultCampaign.CoverageByGroup.
type GroupCoverage = fault.GroupCoverage

// TimedPattern is a module test pattern with tracing metadata.
type TimedPattern = fault.TimedPattern

// SimOptions tunes a fault-simulation run.
type SimOptions = fault.SimOptions

// FaultSimReport is the Fault Sim Report of one simulation run.
type FaultSimReport = fault.Report

// BuildModule elaborates the gate-level model of a module with its default
// lane count (DU: 1, SP: 8, SFU: 2).
func BuildModule(kind ModuleKind) (*Module, error) { return circuits.Build(kind, 0) }

// AllFaults returns the module's full lane-expanded stuck-at fault list.
func AllFaults(m *Module) []Fault {
	return fault.ExpandLanes(fault.AllSites(m.NL), m.Lanes)
}

// SampleFaults returns a deterministic random sample of the module's
// faults, for tractable medium-scale campaigns.
func SampleFaults(m *Module, n int, seed int64) []Fault {
	c := fault.NewCampaign(m)
	c.SampleFaults(n, seed)
	return c.Faults()
}

// NewFaultCampaign creates a campaign over an explicit fault list.
func NewFaultCampaign(m *Module, faults []Fault) *FaultCampaign {
	return fault.NewCampaignWithFaults(m, faults)
}

// SeqFaultCampaign fault-simulates a sequential module (ModulePIPE):
// the pattern stream is one ordered test sequence and faulty state
// persists across clock cycles.
type SeqFaultCampaign = fault.SeqCampaign

// NewSeqFaultCampaign creates a sequential campaign over the module's
// stem stuck-at faults.
func NewSeqFaultCampaign(m *Module) (*SeqFaultCampaign, error) {
	return fault.NewSeqCampaign(m)
}

// ---------------------------------------------------------------------------
// STL model and generators.

// PTP is a Parallel Test Program.
type PTP = stl.PTP

// STL is an ordered set of PTPs.
type STL = stl.STL

// SB is a Small Block (the removal granularity of the reduction stage).
type SB = stl.SB

// Region is a half-open instruction index range.
type Region = stl.Region

// WritePTP / ReadPTP serialize a PTP as JSON with the program embedded as
// assembly text; WriteSTL / ReadSTL handle whole libraries.
var (
	WritePTP = stl.WritePTP
	ReadPTP  = stl.ReadPTP
	WriteSTL = stl.WriteSTL
	ReadSTL  = stl.ReadSTL
)

// WriteSTLFile writes an STL durably (fsync'd atomic replace) together
// with a CRC32C checksum sidecar; ReadSTLFile verifies the sidecar when
// present and tolerates its absence; VerifySTLFile only checks.
var (
	WriteSTLFile  = stl.WriteSTLFile
	ReadSTLFile   = stl.ReadSTLFile
	VerifySTLFile = stl.VerifySTLFile
)

// WriteFileAtomic writes a file durably: temp file in the same
// directory, fsync, rename over the destination, directory fsync. Every
// artifact writer in this module goes through it.
var WriteFileAtomic = journal.WriteFileAtomic

// SegmentSBs derives a Small Block structure from code, for externally
// authored PTPs without generator metadata.
func SegmentSBs(prog []Instruction, regions []Region) []SB {
	return stl.SegmentSBs(prog, regions)
}

// GenerateIMM builds the pseudorandom immediate-format DU PTP.
func GenerateIMM(numSBs int, seed int64) *PTP { return ptpgen.IMM(numSBs, seed) }

// GenerateMEM builds the memory-access DU PTP.
func GenerateMEM(numSBs int, seed int64) *PTP { return ptpgen.MEM(numSBs, seed) }

// GenerateCNTRL builds the control-flow DU PTP (1024 threads, parametric
// loops).
func GenerateCNTRL(sections int, seed int64) *PTP { return ptpgen.CNTRL(sections, seed) }

// GenerateRAND builds the pseudorandom SP-core PTP.
func GenerateRAND(numSBs int, seed int64) *PTP { return ptpgen.RAND(numSBs, seed) }

// GenerateFPRAND builds a pseudorandom PTP for the FP32 units (an
// extension beyond the paper's STL, enabled by the FP32 gate model).
func GenerateFPRAND(numSBs int, seed int64) *PTP { return ptpgen.FPRAND(numSBs, seed) }

// GenerateDIVG builds a divergence-stack test PTP: nested divergence on
// the thread-id bits to the given depth, fully protected from compaction
// (the control-unit STL parts the paper excludes).
func GenerateDIVG(depth, repeats int, seed int64) *PTP {
	return ptpgen.DIVG(depth, repeats, seed)
}

// ATPGOptions tunes the test pattern generator.
type ATPGOptions = atpg.Options

// ATPGResult is the outcome of a generation run.
type ATPGResult = atpg.Result

// DefaultATPGOptions returns a reasonable ATPG configuration.
func DefaultATPGOptions(seed int64) ATPGOptions { return atpg.DefaultOptions(seed) }

// GenerateATPG runs random-pattern + PODEM test generation on a module.
func GenerateATPG(m *Module, opt ATPGOptions) *ATPGResult { return atpg.Generate(m, opt) }

// StaticCompactPatterns performs classic reverse-order static test-set
// compaction, preserving the pattern set's coverage exactly.
var StaticCompactPatterns = atpg.StaticCompact

// ConvertTPGEN parses ATPG SP patterns into the TPGEN PTP; the second
// result counts patterns without an instruction equivalent.
func ConvertTPGEN(res *ATPGResult, seed int64) (*PTP, int) {
	return ptpgen.TPGEN(res.Patterns, seed)
}

// ConvertSFUIMM parses ATPG SFU patterns into the SFU_IMM PTP.
func ConvertSFUIMM(res *ATPGResult, seed int64) (*PTP, int) {
	return ptpgen.SFUIMM(res.Patterns, seed)
}

// ---------------------------------------------------------------------------
// Tracing.

// TraceCollector is the hardware-monitor equivalent: attach it to a GPU
// run to obtain the Tracing Report and the module test-pattern stream.
type TraceCollector = trace.Collector

// NewTraceCollector creates a collector extracting patterns for target.
func NewTraceCollector(target ModuleKind) *TraceCollector {
	return trace.NewCollector(target)
}

// GLReport summarizes a gate-level logic simulation of a pattern stream.
type GLReport = trace.GLReport

// VerifyGL replays an extracted pattern stream on the module's gate-level
// netlist and cross-checks the outputs against the golden reference — the
// paper's stage-2 gate-level logic simulation.
func VerifyGL(m *Module, patterns []TimedPattern) (*GLReport, error) {
	return trace.VerifyGL(m, patterns)
}

// ---------------------------------------------------------------------------
// The compaction method and the baseline.

// CompactorOptions tunes the five-stage method.
type CompactorOptions = core.Options

// Compactor runs the paper's five-stage compaction with a persistent
// (fault-dropping) campaign.
type Compactor = core.Compactor

// CompactionResult reports one PTP's compaction.
type CompactionResult = core.Result

// NewCompactor creates a compactor over the module's fault list. Besides
// CompactPTP (the paper's five stages), the Compactor offers
// CompactToBudget, which fits a PTP into a clock-cycle budget by greedy
// detections-per-cycle selection — an implemented extension of the paper's
// in-field time-constraint motivation.
func NewCompactor(cfg GPUConfig, m *Module, faults []Fault, opt CompactorOptions) *Compactor {
	return core.New(cfg, m, faults, opt)
}

// LabelDetail is the inspectable output of the Fig. 2 labeling algorithm,
// with per-warp attribution of fault detections to instructions.
type LabelDetail = core.LabelDetail

// LabelDetailed runs the labeling algorithm keeping per-warp detail.
var LabelDetailed = core.LabelDetailed

// CollapseEquivalent removes structurally equivalent stuck-at faults.
var CollapseEquivalent = fault.CollapseEquivalent

// WriteVerilog emits a netlist as structural Verilog for external tools.
var WriteVerilog = netlist.WriteVerilog

// ModuleSet supplies modules and fault lists for STL-wide compaction.
type ModuleSet = core.ModuleSet

// NewModuleSet builds modules and (optionally sampled) fault lists for
// the module kinds an STL targets.
func NewModuleSet(lib *STL, sample int, seed int64) (*ModuleSet, error) {
	return core.NewModuleSet(lib, sample, seed)
}

// Stage identifies one stage of the compaction pipeline, for stage
// hooks and failure attribution.
type Stage = core.Stage

// The pipeline stages, in execution order.
const (
	StagePartition  = core.StagePartition
	StageTrace      = core.StageTrace
	StageFaultSim   = core.StageFaultSim
	StageReduce     = core.StageReduce
	StageReassemble = core.StageReassemble
	StageEvaluate   = core.StageEvaluate
)

// StageError attributes a compaction failure to a pipeline stage.
type StageError = run.StageError

// RunnerOptions tunes the resilient STL runner: checkpoint directory,
// per-stage watchdog timeout, FC-safety tolerance, and stage hooks.
type RunnerOptions = run.Options

// RunReport is the outcome of a resilient STL compaction run.
type RunReport = run.Report

// RunOutcome is one PTP's row of a resilient run report.
type RunOutcome = run.Outcome

// RunStatus classifies one PTP's outcome in a resilient run.
type RunStatus = run.Status

// The per-PTP outcomes of a resilient run.
const (
	RunCompacted     = run.StatusCompacted
	RunRevertedError = run.StatusRevertedError
	RunRevertedFC    = run.StatusRevertedFC
	RunExcluded      = run.StatusExcluded
	RunQuarantined   = run.StatusQuarantined
)

// CompactWholeSTLResilient runs the five-stage method over every
// candidate PTP, sharing one fault campaign per target module, and
// reassembles the STL; PTPs with no admissible regions pass through
// untouched. It runs under the resilience layer: per-PTP panic
// isolation, cooperative cancellation through ctx, per-stage watchdog
// timeouts, a checksummed write-ahead journal for checkpoint/resume, a
// poison-PTP quarantine policy (crashing or stalling PTPs are retried up
// to RunnerOptions.MaxPTPRetries times, then kept in their original form
// while the run continues), and an FC-safety guard that keeps the
// original PTP when compaction fails or costs more coverage than the
// tolerance allows.
func CompactWholeSTLResilient(ctx context.Context, cfg GPUConfig, ms *ModuleSet,
	lib *STL, opt CompactorOptions, ropt RunnerOptions) (*RunReport, error) {
	return run.Run(ctx, cfg, ms, lib, opt, ropt)
}

// FsckReport is the outcome of a campaign-state integrity check.
type FsckReport = run.FsckReport

// FsckIssue is one integrity finding; FsckKind classifies it (CRC
// mismatch, torn tail, config-hash mismatch, PTP hash drift, artifact
// checksum failure, ...).
type (
	FsckIssue = run.FsckIssue
	FsckKind  = run.FsckKind
)

// FsckCampaign verifies the durable state of a checkpointed campaign —
// the write-ahead journal's record CRCs and schema, the config hash
// against wantHash (skipped when empty), the journaled PTP hashes
// against lib (skipped when nil), and each artifact's checksum sidecar —
// without modifying anything.
func FsckCampaign(dir, wantHash string, lib *STL, artifacts []string) (*FsckReport, error) {
	return run.Fsck(dir, wantHash, lib, artifacts)
}

// CampaignConfigHash fingerprints everything that determines a run's
// results; the resilient runner refuses to resume a journal written
// under a different hash, and FsckCampaign cross-checks it.
func CampaignConfigHash(cfg GPUConfig, ms *ModuleSet, lib *STL, opt CompactorOptions) (string, error) {
	return run.ConfigHash(cfg, ms, lib, opt)
}

// ---------------------------------------------------------------------------
// Distributed fault simulation.

// FaultSimulator abstracts the engine behind the compactor's fault
// simulations; set CompactorOptions.Simulator to replace the in-process
// engine (e.g. with a DistCoordinator).
type FaultSimulator = core.FaultSimulator

// DistCoordinator shards fault campaigns across worker transports with
// retries, hedging, heartbeat health checks and graceful degradation.
// Its SimulateCampaign method satisfies FaultSimulator.
type DistCoordinator = dist.Coordinator

// DistOptions tunes the coordinator's robustness machinery (attempts,
// backoff, deadlines, hedging, heartbeats, shard count).
type DistOptions = dist.Options

// DistResult is the outcome of one distributed campaign run, including
// the fault-coverage lower/upper bounds of a degraded (partially
// failed) run.
type DistResult = dist.Result

// WorkerTransport carries shard requests to one worker.
type WorkerTransport = dist.Transport

// NewDistCoordinator creates a coordinator over worker transports.
func NewDistCoordinator(opt DistOptions, workers ...WorkerTransport) (*DistCoordinator, error) {
	return dist.New(opt, workers...)
}

// NewLocalWorker returns an in-process worker transport (tests,
// single-machine distribution).
func NewLocalWorker(name string) WorkerTransport { return dist.NewLocal(name) }

// NewWorkerTransport returns an HTTP transport (binary shard frames,
// JSON replies) to a stlworker daemon at addr ("host:port" or a full
// URL).
func NewWorkerTransport(addr string) WorkerTransport { return dist.NewHTTP(addr) }

// NewWorkerHandler returns the worker daemon's HTTP handler (cmd/
// stlworker serves this; tests can mount it on httptest servers).
func NewWorkerHandler(name string, logf func(format string, args ...any)) http.Handler {
	return dist.NewHandler(name, logf)
}

// WorkerHandler is the worker daemon's handler with graceful-drain
// controls (StartDrain / DrainWait) for clean SIGTERM shutdown.
type WorkerHandler = dist.WorkerHandler

// NewWorkerHandlerMetrics is NewWorkerHandler with worker-side shard
// telemetry recorded into the given registry, returned as the concrete
// drainable handler.
func NewWorkerHandlerMetrics(name string, logf func(format string, args ...any), m *MetricsRegistry) *WorkerHandler {
	return dist.NewHandlerMetrics(name, logf, m)
}

// WorkerServiceOptions tunes the worker daemon's backpressure: bounded
// concurrency and accept queue, in-flight request-byte accounting, and
// the Retry-After hint sent with 429 bounces. The zero value disables
// every limit.
type WorkerServiceOptions = dist.WorkerOptions

// NewWorkerHandlerOptions is the fully tunable worker handler
// constructor: telemetry plus WorkerServiceOptions backpressure. A
// saturated worker answers 429 + Retry-After (the coordinator reroutes
// without charging a failure), reports not-ready on /readyz, and stays
// alive on /livez.
func NewWorkerHandlerOptions(name string, o WorkerServiceOptions) *WorkerHandler {
	return dist.NewHandlerOptions(name, o)
}

// ---------------------------------------------------------------------------
// Overload resilience: admission control and retry budgets.

// ErrOverloaded marks work shed by admission control rather than
// attempted: a fast, explicit refusal that left no partial artifact.
// Retry later (or resume a checkpointed campaign) once load eases.
var ErrOverloaded = overload.ErrOverloaded

// AdmissionPool is a weighted semaphore with a bounded FIFO wait queue
// and deadline-aware shedding — the campaign-level admission gate. Wire
// one into RunnerOptions.Admission; a nil pool admits everything
// instantly.
type AdmissionPool = overload.Admission

// AdmissionPoolOptions configures an AdmissionPool.
type AdmissionPoolOptions = overload.AdmissionOptions

// NewAdmissionPool creates an admission pool bounding the summed cost
// of concurrently admitted campaigns.
func NewAdmissionPool(o AdmissionPoolOptions) *AdmissionPool {
	return overload.NewAdmission(o)
}

// EstimateCampaignCost estimates one campaign's admission cost from its
// shape (gates × lanes × PTPs × pattern words). Costs are proportional
// across campaigns, not absolute bytes.
func EstimateCampaignCost(gates, lanes, ptps, patternWords int) int64 {
	return overload.CampaignCost(gates, lanes, ptps, patternWords)
}

// IsTransientFailure reports whether a campaign error is environmental
// and retry-worthy — an overload shed, an expired deadline or
// cancellation, a full disk — rather than corruption or a logic error.
// A transient failure on a checkpointed campaign means "re-run to
// resume", never "quarantine" or "fsck".
func IsTransientFailure(err error) bool { return journal.IsTransient(err) }

// ---------------------------------------------------------------------------
// Observability: metrics registry, span tracing, structured logging.

// MetricsRegistry is the process's metric namespace: counters, gauges
// and histograms with atomic hot paths, rendered as Prometheus text or
// an expvar-compatible JSON snapshot. A nil *MetricsRegistry (and every
// handle it returns) is a valid no-op, so instrumented code needs no
// conditionals.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a point-in-time copy of a registry's values.
type MetricsSnapshot = obs.Snapshot

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MarshalMetrics renders a registry's current snapshot as indented
// JSON (the `stlcompact -metrics-out` format). A nil registry yields
// an empty snapshot.
func MarshalMetrics(r *MetricsRegistry) ([]byte, error) {
	return obs.MarshalSnapshot(r.Snapshot())
}

// SpanTracer records hierarchical campaign -> PTP -> stage -> shard
// spans and flushes them atomically as a JSONL trace file. A nil tracer
// is a valid no-op.
type SpanTracer = obs.Tracer

// TraceSpan is one in-flight span of a SpanTracer.
type TraceSpan = obs.Span

// TraceEvent is one line of a JSONL trace file.
type TraceEvent = obs.Event

// TraceSummary is the per-stage latency / critical-path digest of one
// campaign trace.
type TraceSummary = obs.TraceSummary

// NewSpanTracer creates a tracer whose Flush writes path.
func NewSpanTracer(path string) *SpanTracer { return obs.NewTracer(path) }

// SpanTracerOptions bounds a tracer's on-disk footprint: past MaxBytes
// the flushed file rotates (path.1 .. path.KeepFiles).
type SpanTracerOptions = obs.TracerOptions

// NewSpanTracerOptions creates a size-bounded, rotating tracer.
func NewSpanTracerOptions(path string, o SpanTracerOptions) *SpanTracer {
	return obs.NewTracerOptions(path, o)
}

// TraceContextHeader is the HTTP header carrying trace context between
// processes (`traceid-spanid-flags`, hex). Submits to stlserver and
// shard requests to stlworker both propagate it.
const TraceContextHeader = obs.TraceHeader

// TraceSpanContext is the propagated identity of one span — enough for
// a remote process to open child spans in the same campaign trace.
type TraceSpanContext = obs.SpanContext

// ParseTraceContext parses the TraceContextHeader wire format.
func ParseTraceContext(s string) (TraceSpanContext, error) { return obs.ParseTraceHeader(s) }

// ReadTraceFile parses a JSONL trace written by SpanTracer.Flush.
func ReadTraceFile(path string) ([]TraceEvent, error) { return obs.ReadTraceFile(path) }

// SummarizeTrace folds trace events into the per-stage summary.
func SummarizeTrace(events []TraceEvent) *TraceSummary { return obs.Summarize(events) }

// ProcessTrace is one process's trace file, named for the merge.
type ProcessTrace = obs.ProcessTrace

// MergedTrace is the fleet-wide view of one or more campaigns: every
// process's spans on one skew-corrected clock, linked into span trees
// via the propagated trace context. cmd/stltrace is a thin CLI over it.
type MergedTrace = obs.MergedTrace

// TraceCriticalPath decomposes one merged campaign's wall-clock into
// queue-wait / transport / simulate / verify / journal / orchestration
// self-time; the categories tile the wall exactly.
type TraceCriticalPath = obs.CriticalPathSummary

// MergeTraces merges per-process traces onto one corrected timeline,
// estimating per-process clock skew from RPC send/recv span pairs.
func MergeTraces(procs []ProcessTrace) (*MergedTrace, error) { return obs.MergeTraces(procs) }

// UsageMeter accumulates per-tenant consumption (campaigns, fault
// blocks, worker-seconds, cache hits/misses, journal bytes) as
// tenant-labeled counters; stlserver exposes it at GET /v1/usage.
type UsageMeter = obs.UsageMeter

// TenantUsage is one tenant's accumulated consumption snapshot.
type TenantUsage = obs.TenantUsage

// NewUsageMeter creates a usage meter recording into reg.
func NewUsageMeter(reg *MetricsRegistry) *UsageMeter { return obs.NewUsageMeter(reg) }

// SLO is one service-level objective: an objective ratio plus bad/total
// event counters read from the registry.
type SLO = obs.SLO

// SLOEngine samples SLOs on a fixed cadence and derives multi-window
// burn rates, published as gpustl_slo_* gauges and /debug/slo.
type SLOEngine = obs.SLOEngine

// SLOStatus is one objective's current burn-rate picture.
type SLOStatus = obs.SLOStatus

// NewSLOEngine creates an engine over the given objectives; windows
// default to 5m/30m/1h/6h.
func NewSLOEngine(reg *MetricsRegistry, slos []SLO, windows ...time.Duration) *SLOEngine {
	return obs.NewSLOEngine(reg, slos, windows...)
}

// LatencySLO builds an SLO over a latency histogram: good events are
// observations at or under threshold seconds.
var LatencySLO = obs.LatencySLO

// RatioSLO builds an SLO from explicit bad/total counter readers.
var RatioSLO = obs.RatioSLO

// RegisterBuildInfo publishes the gpustl_build_info gauge (component,
// version, Go version) every daemon exposes.
var RegisterBuildInfo = obs.RegisterBuildInfo

// MetricsLintProblem is one finding of LintMetricsText.
type MetricsLintProblem = obs.LintProblem

// LintMetricsText checks Prometheus text-format output for the
// promlint-style defects the repo's own exporters must not have.
var LintMetricsText = obs.LintPrometheusText

// NewDebugMux builds the operator endpoint a daemon serves on its
// metrics address: /metrics (Prometheus text), /debug/vars (expvar) and
// /debug/pprof/*.
func NewDebugMux(reg *MetricsRegistry, publishName string) *http.ServeMux {
	return obs.NewDebugMux(reg, publishName)
}

// NewDebugMuxSLO is NewDebugMux plus the SLO engine's /debug/slo page
// and burn-rate gauges; /metrics also answers OpenMetrics (with
// histogram exemplars linking buckets to trace IDs) when the scraper
// asks for it via Accept.
func NewDebugMuxSLO(reg *MetricsRegistry, publishName string, slo *SLOEngine) *http.ServeMux {
	return obs.NewDebugMuxSLO(reg, publishName, slo)
}

// BaselineCompactor is the iterative prior-work method (one fault
// simulation per candidate removal).
type BaselineCompactor = baseline.Compactor

// BaselineResult reports an iterative compaction run.
type BaselineResult = baseline.Result

// NewBaseline creates the iterative baseline compactor.
func NewBaseline(cfg GPUConfig, m *Module, faults []Fault) *BaselineCompactor {
	return baseline.New(cfg, m, faults)
}

// ---------------------------------------------------------------------------
// Signatures.

// SignatureFold is one Signature-per-Thread update step (rotate-left-1
// XOR), as the generated PTPs compute it.
func SignatureFold(sig, value uint32) uint32 { return signature.Fold(sig, value) }

// MISR is a 32-bit multiple-input signature register.
type MISR = signature.MISR

// NewMISR creates a MISR (poly 0 selects the default polynomial).
func NewMISR(seed, poly uint32) *MISR { return signature.NewMISR(seed, poly) }

// ---------------------------------------------------------------------------
// Pattern files.

// VCDEHeader describes a pattern file.
type VCDEHeader = vcde.Header

// WriteVCDE and ReadVCDE serialize pattern streams in the VCDE-like text
// format used between the tracing stage and the fault injector.
var (
	WriteVCDE = vcde.Write
	ReadVCDE  = vcde.Read
)

// ---------------------------------------------------------------------------
// Experiments (paper tables).

// Scale selects the experiment size (Small, Medium, Paper).
type Scale = experiments.Scale

// Experiment scales.
const (
	Small  = experiments.Small
	Medium = experiments.Medium
	Paper  = experiments.Paper
)

// ExperimentParams holds the experiment knobs.
type ExperimentParams = experiments.Params

// Env is a built experiment environment (modules, faults, the six PTPs).
type Env = experiments.Env

// ParamsFor returns a scale's default parameters.
func ParamsFor(s Scale) ExperimentParams { return experiments.ParamsFor(s) }

// ScaleByName parses "small", "medium" or "paper".
func ScaleByName(name string) (Scale, error) { return experiments.ScaleByName(name) }

// BuildEnv constructs the experiment environment.
func BuildEnv(p ExperimentParams) (*Env, error) { return experiments.BuildEnv(p) }

// TableIResult holds the Table I rows.
type TableIResult = experiments.TableIResult

// CompactionTables holds the rows of Table II or Table III.
type CompactionTables = experiments.CompactionResult

// STLSummaryResult holds the whole-STL summary claims.
type STLSummaryResult = experiments.STLSummaryResult

// AblationResult holds the ablation studies.
type AblationResult = experiments.AblationResult

// BaselineCompareResult holds the proposed-vs-baseline cost comparison.
type BaselineCompareResult = experiments.BaselineCompareResult

// ExtensionsResult holds the beyond-the-paper studies (FP32 compaction,
// sequential pipeline-register coverage).
type ExtensionsResult = experiments.ExtensionsResult

// Experiment drivers, one per paper artifact.
var (
	TableI          = experiments.TableI
	TableII         = experiments.TableII
	TableIII        = experiments.TableIII
	STLSummary      = experiments.STLSummary
	Ablations       = experiments.Ablations
	BaselineCompare = experiments.BaselineCompare
	Extensions      = experiments.Extensions
)
