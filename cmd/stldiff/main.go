// Command stldiff compares two saved STL files (see stlcompact -save):
// per-PTP instruction counts, Small Blocks, data segments, and measured
// durations and fault coverage — the before/after view of a compaction.
//
// Usage:
//
//	stldiff -a stl_original.json -b stl_compacted.json [-faults N] [-seed S]
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"gpustl"
	"gpustl/internal/obs"
)

// logger is configured in main after flags are parsed.
var logger *slog.Logger

func fatal(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}

// load reads one STL, verifying its checksum sidecar when one exists so
// a corrupted artifact fails with an integrity error instead of a
// confusing diff.
func load(path string) *gpustl.STL {
	lib, err := gpustl.ReadSTLFile(path)
	if err != nil {
		fatal(err)
	}
	return lib
}

// measure runs the PTP and returns (cycles, coverage) on a fresh campaign.
func measure(p *gpustl.PTP, nFaults int, seed int64) (uint64, float64) {
	col := gpustl.NewTraceCollector(p.Target)
	col.LiteRows = true
	g, err := gpustl.NewGPU(gpustl.DefaultGPUConfig(), col)
	if err != nil {
		fatal(err)
	}
	res, err := g.Run(gpustl.Kernel{
		Prog: p.Prog, Blocks: p.Kernel.Blocks,
		ThreadsPerBlock: p.Kernel.ThreadsPerBlock,
		GlobalBase:      p.Data.Base, GlobalData: p.Data.Words,
	})
	if err != nil {
		fatal(err)
	}
	mod, err := gpustl.BuildModule(p.Target)
	if err != nil {
		fatal(err)
	}
	camp := gpustl.NewFaultCampaign(mod, gpustl.SampleFaults(mod, nFaults, seed))
	if _, err := camp.SimulateCtx(context.Background(), col.Patterns, gpustl.SimOptions{}); err != nil {
		fatal(err)
	}
	return res.Cycles, camp.Coverage()
}

func main() {
	var (
		aPath   = flag.String("a", "", "first STL file (typically the original)")
		bPath   = flag.String("b", "", "second STL file (typically the compacted)")
		nFaults = flag.Int("faults", 3000, "fault sample for the FC measurement")
		seed    = flag.Int64("seed", 1, "fault sampling seed")
		logJSON = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()
	logger = obs.NewLogger(os.Stderr, "stldiff", slog.LevelInfo, *logJSON)
	if *aPath == "" || *bPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	a, b := load(*aPath), load(*bPath)

	fmt.Printf("%-8s %22s %13s %26s %18s\n", "PTP", "instructions", "SBs", "duration (cc)", "FC (%)")
	for _, pa := range a.PTPs {
		pb := b.ByName(pa.Name)
		if pb == nil {
			fmt.Printf("%-8s only in %s\n", pa.Name, *aPath)
			continue
		}
		ccA, fcA := measure(pa, *nFaults, *seed)
		ccB, fcB := measure(pb, *nFaults, *seed)
		fmt.Printf("%-8s %8d -> %8d %5d -> %4d %11d -> %11d %7.2f -> %7.2f\n",
			pa.Name, len(pa.Prog), len(pb.Prog), len(pa.SBs), len(pb.SBs),
			ccA, ccB, fcA, fcB)
	}
	for _, pb := range b.PTPs {
		if a.ByName(pb.Name) == nil {
			fmt.Printf("%-8s only in %s\n", pb.Name, *bPath)
		}
	}
	fmt.Printf("%-8s %8d -> %8d\n", "total", a.TotalSize(), b.TotalSize())
}
