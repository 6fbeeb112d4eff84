# Tier-1 gate: build + tests (what CI and the roadmap require). The
# tests run uncached in shuffled order, which catches state leaking
# from one test into the next.
.PHONY: test
test:
	go build ./...
	go test -shuffle=on -count=1 ./...

# Lint: formatting drift and vet findings fail the build. gofmt -l
# prints offending files; the grep inverts that into an exit code.
.PHONY: lint
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	go vet ./...

# Full verification: lint, the race detector, the crash-recovery
# durability tests, a flake guard that reruns twenty times the chaos
# tests most sensitive to failpoint isolation and the identity test of
# the runner's logic-simulation lookahead, and a short fuzz
# smoke of every hostile-input decoder and of asm.Canonical, which the
# PTP digest depends on. The race pass matters here —
# the fault simulator, the resilient runner and the metrics registry
# are the concurrent parts of the codebase (the obs registry gets an
# explicit high-contention race run); the fuzz smoke keeps the
# journal/STL/assembly parsers honest against corrupt bytes without
# the cost of a long fuzzing run; FuzzExecRows holds the SIMT row
# evaluator to the scalar per-thread oracle, FuzzCollectorDedup holds
# the collector's unique and reversed pattern streams to a map-based
# dedup, FuzzImply holds PODEM's
# event-driven implication to a full forward sweep, and FuzzStemKernel
# and FuzzPlanKernel hold the AVX2 stem-cone and good-sweep kernels to
# the generic evalStemCode and evalPlanCode. The purego pass runs the
# netlist and fault tests on both generic kernels, so hosts with AVX2
# test both paths. The explicit metrics-lint pass
# runs a campaign through a live server over two loopback workers,
# scrapes both /metrics endpoints, and fails on any Prometheus
# text-format hygiene problem or on a family missing from the
# docs/OBSERVABILITY.md catalog. verify-medium and verify-paper check the
# paper's tables at medium and paper scale against the committed
# results_medium.txt and results_paper.txt. perfbench is
# its own Go module, so `go build ./...` never compiles it; it is vetted
# and tested on its own, since it compiles against the library's API.
.PHONY: verify
verify: test lint chaos-smoke chaos-overload chaos-server verify-medium verify-paper
	go test -race ./...
	go test -count=1 -tags purego ./internal/netlist ./internal/fault
	cd perfbench && go vet . && go test .
	go test -count=20 -run 'TestSoakConcurrentSchedules|TestChaosMergeByteIdentical|TestConcurrentRunsDoNotShareFailpoints|TestLookaheadMatchesSerial' ./internal/chaos ./internal/dist ./internal/run
	go test -race -run 'TestRegistryConcurrent' -count=1 ./internal/obs
	go test -run 'TestMetricsLint' -count=1 .
	go test -run 'TestCrashRecovery|TestTornFinalRecord|TestFlippedCRCByte|TestFsckAgreesWithResume|TestResumeRefusesOtherFCTolerance' -count=1 ./internal/run
	go test -fuzz '^FuzzAssemble$$' -fuzztime 10s -run '^$$' ./internal/asm
	go test -fuzz '^FuzzCanonical$$' -fuzztime 10s -run '^$$' ./internal/asm
	go test -fuzz '^FuzzDecode$$' -fuzztime 10s -run '^$$' ./internal/isa
	go test -fuzz '^FuzzReadPTP$$' -fuzztime 10s -run '^$$' ./internal/stl
	go test -fuzz '^FuzzReadSTL$$' -fuzztime 10s -run '^$$' ./internal/stl
	go test -fuzz '^FuzzDecodeRecord$$' -fuzztime 10s -run '^$$' ./internal/journal
	go test -fuzz '^FuzzRead$$' -fuzztime 10s -run '^$$' ./internal/vcde
	go test -fuzz '^FuzzShardReply$$' -fuzztime 10s -run '^$$' ./internal/dist
	go test -fuzz '^FuzzShardFrame$$' -fuzztime 10s -run '^$$' ./internal/dist
	go test -fuzz '^FuzzWorkerHealth$$' -fuzztime 10s -run '^$$' ./internal/dist
	go test -fuzz '^FuzzWideBlockEquiv$$' -fuzztime 10s -run '^$$' ./internal/fault
	go test -fuzz '^FuzzObsFactors$$' -fuzztime 10s -run '^$$' ./internal/netlist
	go test -fuzz '^FuzzStemKernel$$' -fuzztime 10s -run '^$$' ./internal/netlist
	go test -fuzz '^FuzzPlanKernel$$' -fuzztime 10s -run '^$$' ./internal/netlist
	go test -fuzz '^FuzzExecRows$$' -fuzztime 10s -run '^$$' ./internal/gpu
	go test -fuzz '^FuzzCollectorDedup$$' -fuzztime 10s -run '^$$' ./internal/trace
	go test -fuzz '^FuzzImply$$' -fuzztime 10s -run '^$$' ./internal/atpg
	go test -fuzz '^FuzzSubsetRuns$$' -fuzztime 10s -run '^$$' ./internal/core

# Reproduction checks, one per scale: regenerate Tables I-III, the STL
# summary, the ablations and the baseline comparison and diff them
# against results_<scale>.txt (small scale is pinned in go test by
# internal/experiments/testdata/tables_small.golden). verify-medium
# takes about 20 s, verify-paper 30-45 s. Wall-clock fields
# vary from run to run, so MASK_TIMES blanks them on both sides: the
# environment build time, the compaction-time column, the baseline
# comparison's milliseconds, and the column padding and rule lengths
# those set.
MASK_TIMES = sed -E \
	-e 's/ready in [^ ]+/ready in T/' \
	-e 's/[0-9][0-9hm.]*(ms|s) *$$/T/' \
	-e 's/^(proposed|iterative baseline)( +[0-9]+ +)[0-9.]+/\1\2T/' \
	-e 's/-{3,}/---/' -e 's/ +/ /g'

.PHONY: verify-medium verify-paper
verify-medium verify-paper: verify-%:
	go run ./cmd/tables -scale $* -table all -summary -ablations -baseline > .results_$*.got
	$(MASK_TIMES) results_$*.txt > .results_$*.want.masked
	$(MASK_TIMES) .results_$*.got > .results_$*.got.masked
	diff .results_$*.want.masked .results_$*.got.masked
	rm -f .results_$*.got .results_$*.want.masked .results_$*.got.masked

# Chaos soak: every canonical fault schedule (torn journal writes,
# mid-commit crashes, stage panics, lossy wire, Byzantine worker,
# heartbeat flaps) runs concurrently against whole compaction
# campaigns, each asserted byte-identical to a fault-free reference
# and the Byzantine worker quarantined. chaos is the full 30s soak;
# chaos-smoke is the short CI version under the race detector.
.PHONY: chaos
chaos:
	go run ./cmd/chaossoak -duration 30s

# -iters bounds the smoke by work, not wall-clock: every schedule
# completes two campaigns (however slow the race-instrumented build
# is), with -duration only as a hard cap.
.PHONY: chaos-smoke
chaos-smoke:
	go run -race ./cmd/chaossoak -duration 120s -iters 2

# Overload smoke: just the overload schedule (3× load against an
# admission pool sized for one, brownout worker, injected admission
# faults), two rounds under the race detector. Each round admits and
# byte-verifies three campaigns and asserts at least one deterministic
# shed plus the retry-budget inequality.
.PHONY: chaos-overload
chaos-overload:
	go run -race ./cmd/chaossoak -schedule overload -duration 120s -iters 2

# Control-plane smoke: just the server schedule under the race
# detector. Each round submits campaigns across two tenants to an
# in-process stlserver, kills it at journaled cut points (injected
# append failures, lease loss, one deliberate kill) and restarts it
# until every campaign is done with artifacts byte-identical to the
# fault-free reference; resubmitted content must come from the
# verified result cache, and a corrupt-injected cache entry must be a
# detected miss that re-simulates — never served bytes.
.PHONY: chaos-server
chaos-server:
	go run -race ./cmd/chaossoak -schedule server -duration 180s -iters 4

# Benchmarks. The JSON streams land in BENCH_dist.json (distributed
# simulation + coordinator stats), BENCH_journal.json (per-record
# fsync append cost, journal replay), BENCH_obs.json (telemetry
# hot paths plus the fault-sim with/without-metrics pair proving <1%
# instrumentation overhead) and BENCH_fault.json (the optimized
# fault-simulation engine's guarded baselines — see bench-compare)
# for machine consumption; the human-readable output still prints.
.PHONY: bench
bench:
	go test -bench . -benchtime 1x -run '^$$' -json . | tee BENCH_dist.json
	go test -bench 'BenchmarkJournal' -benchtime 1x -run '^$$' -json ./internal/journal | tee BENCH_journal.json
	go test -bench 'BenchmarkObs' -benchtime 1000x -run '^$$' -json ./internal/obs | tee BENCH_obs.json
	go test -bench 'BenchmarkSimulateSP(Metrics)?$$' -benchtime 3x -run '^$$' -json ./internal/fault | tee -a BENCH_obs.json
	go test -bench $(FAULT_BENCHES) -benchtime 10x -count=3 -run '^$$' -json . | tee BENCH_fault.json
	go test -bench $(EVAL_BENCHES) -benchtime 100x -count=3 -run '^$$' -json ./internal/netlist | tee BENCH_eval.json
	go test -bench $(OVERLOAD_BENCHES) -benchtime 10x -run '^$$' -json . | tee BENCH_overload.json
	go test -bench 'BenchmarkAdmission|BenchmarkRetryBudget' -benchtime 1000x -run '^$$' -json ./internal/overload | tee -a BENCH_overload.json
	go test -bench . -benchtime 1x -run '^$$' ./internal/...

# The engine benchmarks guarded against regression, and the committed
# baseline they are compared to.
FAULT_BENCHES = 'BenchmarkFaultSimulation$$|BenchmarkTableI$$'

# The levelized-plan evaluator sweeps, scalar and wide (BENCH_eval.json):
# the per-block cost of the plan-code sweep at W = 1/4/8/16.
EVAL_BENCHES = 'BenchmarkEvalRun$$|BenchmarkEvalRunWide/'

# The overload pair: the fault-sim benchmark with and without the
# unlimited admission/deadline plumbing. BENCH_overload.json also
# carries the shed-latency and admission micro-benchmarks from
# internal/overload; TestOverloadPlumbingOverhead asserts the <1%
# disarmed-overhead bound in plain `go test`.
OVERLOAD_BENCHES = 'BenchmarkFaultSimulation(Overload)?$$'

# bench-compare reruns the guarded engine benchmarks and fails if any
# is more than 15% slower (ns/op) than the committed BENCH_fault.json
# baseline. Run it on the baseline's hardware; for a portable sanity
# check use bench-smoke.
.PHONY: bench-compare
bench-compare:
	go test -bench $(FAULT_BENCHES) -benchtime 10x -count=3 -run '^$$' -json . > .bench_new.json
	go run ./cmd/benchdiff -old BENCH_fault.json -new .bench_new.json \
		-bench $(FAULT_BENCHES) -threshold 15
	rm -f .bench_new.json
	go test -bench $(EVAL_BENCHES) -benchtime 100x -count=3 -run '^$$' -json ./internal/netlist > .bench_new_eval.json
	go run ./cmd/benchdiff -old BENCH_eval.json -new .bench_new_eval.json \
		-bench $(EVAL_BENCHES) -threshold 15
	rm -f .bench_new_eval.json
	go test -bench $(OVERLOAD_BENCHES) -benchtime 10x -run '^$$' -json . > .bench_new_overload.json
	go run ./cmd/benchdiff -old BENCH_overload.json -new .bench_new_overload.json \
		-bench $(OVERLOAD_BENCHES) -threshold 15
	rm -f .bench_new_overload.json

# bench-smoke is the CI version of bench-compare: one short run of the
# fault-simulation benchmark through the same diff pipeline, with a
# threshold loose enough for unrelated CI hardware. It catches
# order-of-magnitude regressions and keeps the baseline file parseable,
# without making CI judge absolute wall-clock.
.PHONY: bench-smoke
bench-smoke:
	go test -bench 'BenchmarkFaultSimulation$$' -benchtime 2x -run '^$$' -json . > .bench_smoke.json
	go run ./cmd/benchdiff -old BENCH_fault.json -new .bench_smoke.json \
		-bench 'BenchmarkFaultSimulation$$' -threshold 400
	rm -f .bench_smoke.json
	# Width pinning: the same benchmark at W=1 and W=8 (GPUSTL_BLOCK_WORDS
	# overrides the auto width) — catches a regression that only one side
	# of the scalar/wide split would see.
	GPUSTL_BLOCK_WORDS=1 go test -bench 'BenchmarkFaultSimulation$$' -benchtime 2x -run '^$$' -json . > .bench_smoke_w1.json
	go run ./cmd/benchdiff -old BENCH_fault.json -new .bench_smoke_w1.json \
		-bench 'BenchmarkFaultSimulation$$' -threshold 900
	rm -f .bench_smoke_w1.json
	GPUSTL_BLOCK_WORDS=8 go test -bench 'BenchmarkFaultSimulation$$' -benchtime 2x -run '^$$' -json . > .bench_smoke_w8.json
	go run ./cmd/benchdiff -old BENCH_fault.json -new .bench_smoke_w8.json \
		-bench 'BenchmarkFaultSimulation$$' -threshold 400
	rm -f .bench_smoke_w8.json
