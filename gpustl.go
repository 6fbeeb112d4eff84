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
// It panics when Generate fails, which with no deadline means PODEM and
// the fault simulator disagree on a pattern: a PODEM pattern that fault
// simulation finds does not detect its target.
func GenerateATPG(m *Module, opt ATPGOptions) *ATPGResult {
	res, err := atpg.Generate(context.Background(), m, opt)
	if err != nil {
		panic(err)
	}
	return res
}

// StaticCompactPatterns performs classic reverse-order static test-set
// compaction, preserving the pattern set's coverage exactly; ctx bounds
// its fault simulation.
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
// against lib (skipped when nil), the journaled fault ids against ms's
// fault lists (skipped when ms or lib is nil), that journaled compacted
// programs decode, and each artifact's checksum sidecar — without
// modifying anything. It reads the journal with the code a resume
// uses, so its verdict is the resume's.
func FsckCampaign(dir, wantHash string, ms *ModuleSet, lib *STL, artifacts []string) (*FsckReport, error) {
	return run.Fsck(dir, wantHash, ms, lib, artifacts)
}

// CampaignConfigHash fingerprints everything that determines a run's
// results, the FC tolerance (RunnerOptions.FCTolerance) among them; the
// resilient runner refuses to resume a journal written under a
// different hash, and FsckCampaign cross-checks it.
func CampaignConfigHash(cfg GPUConfig, ms *ModuleSet, lib *STL, opt CompactorOptions, fcTol float64) (string, error) {
	return run.ConfigHash(cfg, ms, lib, opt, fcTol)
}

// ---------------------------------------------------------------------------
// Distributed fault simulation.

// FaultSimulator abstracts the engine behind the compactor's fault
// simulations; set CompactorOptions.Simulator to replace the in-process
// engine (e.g. with a DistCoordinator).
type FaultSimulator = core.FaultSimulator

// DistCoordinator shards fault campaigns across worker transports with
// retries, hedging and heartbeat health checks; a simulation either
// completes on every shard or fails leaving the campaign untouched.
// Its SimulateCampaign method satisfies FaultSimulator.
type DistCoordinator = dist.Coordinator

// DistOptions tunes the coordinator's robustness machinery (attempts,
// backoff, deadlines, hedging, heartbeats, shard count).
type DistOptions = dist.Options

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

// NewWorkerHandler returns a worker daemon's HTTP handler with no
// telemetry or limits (tests and benchmarks mount it on loopback
// servers; cmd/stlworker uses NewWorkerHandlerOptions).
func NewWorkerHandler(name string, logf func(format string, args ...any)) http.Handler {
	return dist.NewHandler(name, logf)
}

// WorkerHandler is the worker daemon's handler with graceful-drain
// controls (StartDrain / DrainWait) for clean SIGTERM shutdown.
type WorkerHandler = dist.WorkerHandler

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
// Overload resilience: admission control and transient-failure classification.

// AdmissionPool is a weighted semaphore with a bounded FIFO wait queue
// and deadline-aware shedding — the campaign-level admission gate that
// RunnerOptions.Admission takes. A nil pool admits everything
// instantly.
type AdmissionPool = overload.Admission

// IsTransientFailure reports whether a campaign error is environmental
// and retry-worthy — an overload shed, an expired deadline or
// cancellation, a full disk — rather than corruption or a logic error.
// A transient failure on a checkpointed campaign means "re-run to
// resume", never "quarantine" or "fsck".
func IsTransientFailure(err error) bool { return journal.IsTransient(err) }

// ---------------------------------------------------------------------------
// Observability: metrics registry, span traces, the operator endpoint.

// MetricsRegistry is the process's metric namespace: counters, gauges
// and histograms with atomic hot paths, rendered as Prometheus text or
// an expvar-compatible JSON snapshot. A nil *MetricsRegistry (and every
// handle it returns) is a valid no-op, so instrumented code needs no
// conditionals.
type MetricsRegistry = obs.Registry

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

// TraceEvent is one line of a JSONL trace file.
type TraceEvent = obs.Event

// TraceSummary is the per-stage latency / critical-path digest of one
// campaign trace.
type TraceSummary = obs.TraceSummary

// NewSpanTracer creates a tracer whose Flush writes path.
func NewSpanTracer(path string) *SpanTracer { return obs.NewTracer(path) }

// ReadTraceFile parses a JSONL trace written by SpanTracer.Flush.
func ReadTraceFile(path string) ([]TraceEvent, error) { return obs.ReadTraceFile(path) }

// SummarizeTrace folds trace events into the per-stage summary.
func SummarizeTrace(events []TraceEvent) *TraceSummary { return obs.Summarize(events) }

// NewDebugMux builds the operator endpoint a daemon serves on its
// metrics address: /metrics (Prometheus text), /debug/vars (expvar) and
// /debug/pprof/*.
func NewDebugMux(reg *MetricsRegistry, publishName string) *http.ServeMux {
	return obs.NewDebugMux(reg, publishName)
}

// ---------------------------------------------------------------------------
// Iterative baseline (prior work).

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

// ExtensionsResult holds the beyond-the-paper study (FP32 compaction).
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
