// Command tables regenerates the paper's evaluation artifacts: Table I
// (PTP features), Table II (Decoder Unit compaction), Table III
// (functional-unit compaction), the whole-STL summary, the ablation
// studies, and the proposed-vs-baseline cost comparison.
//
// Usage:
//
//	tables [-scale small|medium|paper] [-table 1|2|3|all] [-summary]
//	       [-ablations] [-baseline] [-seed N] [-csv DIR]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"gpustl"
	"gpustl/internal/obs"
)

func main() {
	var (
		scaleName = flag.String("scale", "small", "experiment scale: small|medium|paper")
		table     = flag.String("table", "all", "which table to regenerate: 1|2|3|all")
		summary   = flag.Bool("summary", false, "print the whole-STL summary (runs tables 2 and 3)")
		ablations = flag.Bool("ablations", false, "run the ablation studies")
		baseline  = flag.Bool("baseline", false, "run the proposed-vs-iterative-baseline comparison")
		exts      = flag.Bool("extensions", false, "run the beyond-the-paper study (FP_RAND compaction on the FP32 unit)")
		seed      = flag.Int64("seed", 1, "experiment seed")
		csvDir    = flag.String("csv", "", "also write each table as CSV into this directory")
		logJSON   = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, "tables", slog.LevelInfo, *logJSON)
	fatal := func(err error) {
		logger.Error(err.Error())
		os.Exit(1)
	}

	writeCSV := func(name string, tb interface{ WriteCSV(w io.Writer) error }) {
		if *csvDir == "" {
			return
		}
		// Durable atomic write: a crash mid-table leaves the previous CSV
		// intact instead of a torn file.
		var buf bytes.Buffer
		if err := tb.WriteCSV(&buf); err != nil {
			fatal(err)
		}
		path := filepath.Join(*csvDir, name)
		if err := gpustl.WriteFileAtomic(path, buf.Bytes()); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	scale, err := gpustl.ScaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	params := gpustl.ParamsFor(scale)
	params.Seed = *seed

	start := time.Now()
	fmt.Printf("building %s-scale environment (modules, fault lists, ATPG, six PTPs)...\n", scale)
	env, err := gpustl.BuildEnv(params)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("environment ready in %v (TPGEN dropped %d patterns, SFU_IMM dropped %d)\n\n",
		time.Since(start).Round(time.Millisecond), env.TPGENDropped, env.SFUIMMDropped)

	runT1 := *table == "1" || *table == "all"
	runT2 := *table == "2" || *table == "all" || *summary
	runT3 := *table == "3" || *table == "all" || *summary

	if runT1 {
		t1, err := gpustl.TableI(env)
		if err != nil {
			fatal(err)
		}
		t1.Render(os.Stdout)
		tb := t1.Table()
		writeCSV("table1.csv", &tb)
		fmt.Println()
	}
	var t2, t3 *gpustl.CompactionTables
	if runT2 {
		t2, err = gpustl.TableII(env)
		if err != nil {
			fatal(err)
		}
		t2.Render(os.Stdout, "TABLE II. COMPACTION RESULTS, TEST PROGRAMS FOR THE DECODER UNIT")
		tb := t2.Table("")
		writeCSV("table2.csv", &tb)
		fmt.Println()
	}
	if runT3 {
		t3, err = gpustl.TableIII(env)
		if err != nil {
			fatal(err)
		}
		t3.Render(os.Stdout, "TABLE III. COMPACTION RESULTS, TEST PROGRAMS FOR THE FUNCTIONAL UNITS")
		tb := t3.Table("")
		writeCSV("table3.csv", &tb)
		fmt.Println()
	}
	if *summary {
		sum, err := gpustl.STLSummary(env, t2, t3)
		if err != nil {
			fatal(err)
		}
		sum.Render(os.Stdout)
		fmt.Println()
	}
	if *ablations {
		ab, err := gpustl.Ablations(env)
		if err != nil {
			fatal(err)
		}
		ab.Render(os.Stdout)
		fmt.Println()
	}
	if *baseline {
		bc, err := gpustl.BaselineCompare(env)
		if err != nil {
			fatal(err)
		}
		bc.Render(os.Stdout)
	}
	if *exts {
		x, err := gpustl.Extensions(env)
		if err != nil {
			fatal(err)
		}
		x.Render(os.Stdout)
	}
}
