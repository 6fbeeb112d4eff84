// Command perfbench is the repository's benchmark: it runs whole
// compaction campaigns in a closed loop (one client, the next campaign
// starts when the previous one's verified artifact is in hand), checks
// every output, and prints one JSON line of metrics.
//
// Usage:
//
//	perfbench --workload du-lib|sp-lib|sp-served --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 every
// other campaign is traced and it prints the per-layer metrics. See
// README.md for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"gpustl"
)

// campaignResult is one timed campaign's outcome.
type campaignResult struct {
	wall  time.Duration // call or submit until the verified artifact is in hand
	hit   bool          // served from the verified cache
	probe *probe        // nil unless traced
	// The original programs a traced campaign replays, and the
	// simulated cycles its run outcomes report (0 where only the
	// artifact is visible).
	kind   gpustl.ModuleKind
	orig   []*gpustl.PTP
	cycles uint64
	// verify checks the outputs outside the timed interval and returns
	// the verified artifact's programs (nil for a cache hit).
	verify func() ([]*gpustl.PTP, error)
}

// bench is one workload, set up and ready to run campaigns.
type bench interface {
	campaign(ctx context.Context, i int, rec *recorder) (campaignResult, error)
	close() error
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string // scratch space for state directories and span dumps
	setups   int    // set-ups per run; setup_s is their median
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "du-lib, sp-lib or sp-served")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 traces every other campaign and prints per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.workDir = filepath.Join(".bench_build", "perfbench")
	cfg.setups = 3
	if (trace != 0 && trace != 1) || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need --trace 0|1 and --seconds >= 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := measure(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// setUp builds the workload's inputs and environment and runs its cold
// campaign. rep numbers the set-ups of one run.
func setUp(ctx context.Context, cfg config, rep int) (bench, error) {
	switch cfg.workload {
	case "du-lib":
		return newDULib(ctx, cfg.seed)
	case "sp-lib":
		return newSPLib(ctx, cfg.seed)
	case "sp-served":
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("state-%d-%d", os.Getpid(), rep))
		return newSPServed(ctx, cfg.seed, dir, cfg.trace)
	}
	return nil, fmt.Errorf("unknown workload %q (want du-lib, sp-lib or sp-served)", cfg.workload)
}

// sample is one timed campaign as the loop saw it.
type sample struct {
	campaignResult
	calibration time.Duration // taken right before the campaign
	cpu         time.Duration
	alloc       uint64
	rssMiB      float64 // peak resident set size during the campaign
	failed      bool
	replay      replayStats
}

// measure sets up cfg.setups times, keeps the last set-up, runs
// campaigns for cfg.seconds and reduces them to metrics.
func measure(ctx context.Context, cfg config) (result, error) {
	// Pin the scheduler to the CPUs this process may use, so runs on
	// the same machine see the same parallelism.
	runtime.GOMAXPROCS(runtime.NumCPU())

	var setups, calibrations []float64
	var b bench
	for rep := range cfg.setups {
		runtime.GC()
		calibrations = append(calibrations, calibrate().Seconds())
		start := time.Now()
		nb, err := setUp(ctx, cfg, rep)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep < cfg.setups-1 {
			if err := nb.close(); err != nil {
				return result{}, fmt.Errorf("closing set-up %d: %w", rep, err)
			}
		} else {
			b = nb
		}
	}
	defer func() {
		if err := b.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing the workload:", err)
		}
	}()
	served, _ := b.(*servedBench)

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var j0, c0 int64
	if served != nil {
		var err error
		if j0, c0, err = served.stateBytes(); err != nil {
			return result{}, err
		}
	}

	// The served workload runs whole cycles of two misses and one hit,
	// so every run has the same mix.
	cycle := 1
	if served != nil {
		cycle = 3
	}
	var samples []sample
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; time.Now().Before(deadline) || i%cycle != 0; i++ {
		if err := ctx.Err(); err != nil {
			return result{}, err
		}
		var r *recorder
		if i%2 == 0 {
			r = rec // traced runs alternate traced and untraced campaigns
		}
		s, err := timedCampaign(ctx, b, i, r)
		if err != nil {
			return result{}, err
		}
		samples = append(samples, s)
		calibrations = append(calibrations, s.calibration.Seconds())
	}

	res := result{Correct: true, Attempted: len(samples), Metrics: map[string]metric{}}
	for _, s := range samples {
		if s.failed {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	scale := hostScale(calibrations)
	if !cfg.trace {
		return res, endToEnd(&res, scale, setups, samples)
	}

	var jb, cb int64
	if served != nil {
		j1, c1, err := served.stateBytes()
		if err != nil {
			return result{}, err
		}
		jb, cb = j1-j0, c1-c0
	}
	perLayer(&res, rec, samples, jb, cb)
	// Layer times are in reference seconds too, so they add up to the
	// end-to-end ones; the calibration itself is reported as measured.
	for name, m := range res.Metrics {
		if m.Unit == "s" || m.Unit == "ns" {
			res.Metrics[name] = metric{m.Value * scale, m.Unit}
		}
	}
	res.Metrics["bench.calibration_s"] = metric{median(calibrations), "s"}
	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := rec.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return res, nil
}

// timedCampaign runs campaign i after a forced GC and a calibration,
// measuring its CPU time, allocation and peak RSS; the output check and
// the traced replays run after the measured interval.
func timedCampaign(ctx context.Context, b bench, i int, rec *recorder) (sample, error) {
	// One campaign allocates hundreds of MiB: start each from a
	// collected heap so earlier garbage does not bill it.
	runtime.GC()
	cal := calibrate()
	if err := resetPeakRSS(); err != nil {
		return sample{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuTime()
	if err != nil {
		return sample{}, err
	}
	cr, cerr := b.campaign(ctx, i, rec)
	cpu1, err := cpuTime()
	if err != nil {
		return sample{}, err
	}
	runtime.ReadMemStats(&m1)
	rss, err := peakRSSMiB()
	if err != nil {
		return sample{}, err
	}
	s := sample{campaignResult: cr, calibration: cal, cpu: cpu1 - cpu0, alloc: m1.TotalAlloc - m0.TotalAlloc, rssMiB: rss}
	var final []*gpustl.PTP
	if cerr == nil {
		final, cerr = cr.verify()
	}
	if cerr != nil {
		if ctx.Err() != nil {
			return sample{}, ctx.Err()
		}
		fmt.Fprintf(os.Stderr, "perfbench: campaign %d failed: %v\n", i, cerr)
		s.failed = true
		return s, nil
	}
	if cr.probe != nil && !cr.hit {
		if s.replay, err = replay(ctx, gpustl.DefaultGPUConfig(), cr.kind, cr.orig, final); err != nil {
			return sample{}, err
		}
	}
	// Keep no campaign's outputs alive: a growing live heap would make
	// later campaigns' garbage collection costlier than earlier ones'.
	s.orig, s.verify = nil, nil
	return s, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endToEnd fills the metrics a user of the system sees. scale converts
// measured seconds to reference seconds (host.go).
func endToEnd(res *result, scale float64, setups []float64, samples []sample) error {
	var walls, rss []float64
	var busy, cpu time.Duration
	var alloc uint64
	verified := 0
	for _, s := range samples {
		busy += s.wall
		cpu += s.cpu
		alloc += s.alloc
		rss = append(rss, s.rssMiB)
		if s.failed {
			continue
		}
		verified++
		if !s.hit {
			walls = append(walls, s.wall.Seconds())
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("no campaign ran a compaction successfully")
	}
	n := float64(len(samples))
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	set("setup_s", "s", median(setups)*scale)
	set("campaign_p50_s", "s", median(walls)*scale)
	set("campaigns_per_s", "1/s", float64(verified)/(busy.Seconds()*scale))
	set("cpu_s_per_campaign", "s", cpu.Seconds()/n*scale)
	set("alloc_mib_per_campaign", "MiB", float64(alloc)/n/(1<<20))
	set("rss_mib", "MiB", median(rss))
	set("verified_ratio", "ratio", float64(verified)/n)
	fmt.Fprintf(os.Stderr, "perfbench: %d campaigns, %d compactions; set-ups %.3f s; host scale %.3f\n",
		len(samples), len(walls), setups, scale)
	return nil
}
