// Command ptpgen generates the Parallel Test Programs of the STL and
// writes them as assembly text, optionally with their extracted
// test-pattern streams in the VCDE-like format.
//
// Usage:
//
//	ptpgen -ptp IMM|MEM|CNTRL|RAND|TPGEN|SFU_IMM|all [-n N] [-seed S]
//	       [-out DIR] [-vcde]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"gpustl"
	"gpustl/internal/obs"
)

func main() {
	var (
		which   = flag.String("ptp", "all", "PTP to generate: IMM|MEM|CNTRL|RAND|TPGEN|SFU_IMM|FP_RAND|all")
		n       = flag.Int("n", 100, "scale: SB count (IMM/MEM/RAND), sections (CNTRL), ATPG fault sample (TPGEN/SFU_IMM)")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("out", ".", "output directory")
		emitV   = flag.Bool("vcde", false, "also extract and write the unique test-pattern stream (.vcde)")
		logJSON = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, "ptpgen", slog.LevelInfo, *logJSON)
	fatal := func(err error) {
		logger.Error(err.Error())
		os.Exit(1)
	}

	gen := func(name string) *gpustl.PTP {
		switch name {
		case "IMM":
			return gpustl.GenerateIMM(*n, *seed)
		case "MEM":
			return gpustl.GenerateMEM(*n, *seed)
		case "CNTRL":
			return gpustl.GenerateCNTRL(max(2, *n/10), *seed)
		case "RAND":
			return gpustl.GenerateRAND(*n, *seed)
		case "FP_RAND":
			return gpustl.GenerateFPRAND(*n, *seed)
		case "TPGEN":
			mod, err := gpustl.BuildModule(gpustl.ModuleSP)
			if err != nil {
				fatal(err)
			}
			opt := gpustl.DefaultATPGOptions(*seed)
			opt.SampleFaults = *n * 10
			res := gpustl.GenerateATPG(mod, opt)
			p, dropped := gpustl.ConvertTPGEN(res, *seed)
			logger.Info("TPGEN generated", "atpg_coverage_pct", res.Coverage(),
				"patterns", len(res.Patterns), "unconvertible", dropped)
			return p
		case "SFU_IMM":
			mod, err := gpustl.BuildModule(gpustl.ModuleSFU)
			if err != nil {
				fatal(err)
			}
			opt := gpustl.DefaultATPGOptions(*seed)
			opt.SampleFaults = *n * 10
			res := gpustl.GenerateATPG(mod, opt)
			p, dropped := gpustl.ConvertSFUIMM(res, *seed)
			logger.Info("SFU_IMM generated", "atpg_coverage_pct", res.Coverage(),
				"patterns", len(res.Patterns), "unconvertible", dropped)
			return p
		}
		logger.Error(fmt.Sprintf("unknown PTP %q", name))
		os.Exit(1)
		return nil
	}

	names := []string{*which}
	if *which == "all" {
		names = []string{"IMM", "MEM", "CNTRL", "RAND", "TPGEN", "SFU_IMM"}
	}
	for _, name := range names {
		p := gen(name)
		path := filepath.Join(*out, p.Name+".sass")
		if err := os.WriteFile(path, []byte(gpustl.Disassemble(p.Prog)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("%-8s %6d instructions, %3d SBs, ARC %6.2f%%, kernel %dx%d -> %s\n",
			p.Name, len(p.Prog), len(p.SBs), 100*p.ARCFraction(),
			p.Kernel.Blocks, p.Kernel.ThreadsPerBlock, path)

		if *emitV {
			col := gpustl.NewTraceCollector(p.Target)
			col.LiteRows = true
			g, err := gpustl.NewGPU(gpustl.DefaultGPUConfig(), col)
			if err != nil {
				fatal(err)
			}
			if _, err := g.Run(gpustl.Kernel{
				Prog: p.Prog, Blocks: p.Kernel.Blocks,
				ThreadsPerBlock: p.Kernel.ThreadsPerBlock,
				GlobalBase:      p.Data.Base, GlobalData: p.Data.Words,
			}); err != nil {
				fatal(err)
			}
			mod, err := gpustl.BuildModule(p.Target)
			if err != nil {
				fatal(err)
			}
			vpath := filepath.Join(*out, p.Name+".vcde")
			f, err := os.Create(vpath)
			if err != nil {
				fatal(err)
			}
			h := gpustl.VCDEHeader{Module: p.Target, Lanes: mod.Lanes, Inputs: len(mod.NL.Inputs)}
			if err := gpustl.WriteVCDE(f, h, col.Patterns); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("         %d %v patterns -> %s\n", len(col.Patterns), p.Target, vpath)
		}
	}
}
