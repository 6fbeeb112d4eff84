// Command faultsim runs the optimized module-level stuck-at fault
// simulation on a test-pattern file, printing the Fault Sim Report
// summary: coverage, detections per pattern-block, and the first
// detections.
//
// Usage:
//
//	faultsim -patterns FILE.vcde [-sample N] [-seed S] [-reverse] [-top K]
//	         [-workers W] [-cpuprofile FILE] [-memprofile FILE]
//
// -workers parallelizes the simulation across W goroutines (0 selects
// GOMAXPROCS); results are bit-identical at any setting. -cpuprofile and
// -memprofile write pprof profiles of the run. Ctrl-C or SIGTERM cancels
// a long campaign cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"slices"
	"syscall"

	"gpustl"
	"gpustl/internal/obs"
	"gpustl/internal/prof"
)

func main() {
	var (
		patFile = flag.String("patterns", "", "VCDE pattern file (from ptpgen -vcde)")
		sample  = flag.Int("sample", 0, "sample the fault list to N faults (0 = full)")
		seed    = flag.Int64("seed", 1, "sampling seed")
		reverse = flag.Bool("reverse", false, "apply the file's patterns in reverse order")
		top     = flag.Int("top", 10, "print the K most effective patterns")
		workers = flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = serial)")
		blockW  = flag.Int("block-words", 0, "block width in 64-pattern words (0 = auto, max 16)")
		logJSON = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, "faultsim", slog.LevelInfo, *logJSON)
	fatal := func(err error) {
		logger.Error(err.Error())
		os.Exit(1)
	}
	if *patFile == "" {
		flag.Usage()
		os.Exit(2)
	}
	stopCPU, err := prof.Start(*cpuProf)
	if err != nil {
		fatal(err)
	}
	defer stopCPU()
	defer func() {
		if err := prof.WriteHeap(*memProf); err != nil {
			logger.Error(err.Error())
		}
	}()

	// Ctrl-C / SIGTERM abort the simulation mid-campaign, matching
	// stlcompact's signal handling.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	f, err := os.Open(*patFile)
	if err != nil {
		fatal(err)
	}
	h, patterns, err := gpustl.ReadVCDE(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("patterns: %d for module %v (%d lanes)\n", len(patterns), h.Module, h.Lanes)

	mod, err := gpustl.BuildModule(h.Module)
	if err != nil {
		fatal(err)
	}
	var faults []gpustl.Fault
	if *sample > 0 {
		faults = gpustl.SampleFaults(mod, *sample, *seed)
	} else {
		faults = gpustl.AllFaults(mod)
	}
	fmt.Printf("fault list: %d stuck-at faults (%d gates x %d lanes)\n",
		len(faults), mod.NL.NumGates(), mod.Lanes)

	if *reverse {
		slices.Reverse(patterns)
	}
	camp := gpustl.NewFaultCampaign(mod, faults)
	rep, err := camp.SimulateCtx(ctx, patterns, gpustl.SimOptions{
		Workers:    *workers,
		BlockWords: *blockW,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("detected: %d / %d faults (FC %.2f%%)\n",
		camp.Detected(), camp.Total(), camp.Coverage())

	fmt.Println("coverage by functional group:")
	for _, g := range camp.CoverageByGroup() {
		name := g.Group
		if name == "" {
			name = "(ungrouped)"
		}
		fmt.Printf("  %-18s %6d / %6d  (%.2f%%)\n", name, g.Detected, g.Total, g.Pct())
	}

	// Most effective patterns.
	type eff struct {
		idx int
		n   int32
	}
	var best []eff
	for i, n := range rep.DetectedPerPattern {
		if n > 0 {
			best = append(best, eff{i, n})
		}
	}
	fmt.Printf("effective patterns: %d of %d\n", len(best), len(rep.Stream))
	for i := 0; i < len(best)-1; i++ {
		for j := i + 1; j < len(best); j++ {
			if best[j].n > best[i].n {
				best[i], best[j] = best[j], best[i]
			}
		}
	}
	if len(best) > *top {
		best = best[:*top]
	}
	for _, b := range best {
		p := rep.Stream[b.idx]
		fmt.Printf("  pattern %6d  cc %10d  lane %d  pc %6d: %5d faults\n",
			b.idx, p.CC, p.Lane, p.PC, b.n)
	}
}
