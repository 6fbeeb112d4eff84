// Command stltrace merges the per-process JSONL trace files of a
// distributed campaign — stlserver's, and one per stlworker — into a
// single fleet-wide waterfall on one corrected clock.
//
// Usage:
//
//	stltrace [-trace ID] [-width N] [-html FILE] [-list] FILE...
//
// Each FILE is a JSONL trace written by a daemon's -trace-out flag (or
// stlcompact's). The process name shown in the waterfall defaults to
// the file's base name; use NAME=FILE to pick it explicitly:
//
//	stltrace server=server.jsonl w1=worker1.jsonl w2=worker2.jsonl
//
// stltrace links spans across files through the propagated trace
// context (every shard executed for a campaign carries the campaign's
// 128-bit trace ID), estimates per-process clock skew from the RPC
// send/recv span pairs and shifts every process onto the reference
// clock, then prints:
//
//   - the skew table (what offset was applied to each process, and
//     which process pairs had inconsistent RPC constraints);
//   - the campaign waterfall (depth-indented span tree with
//     proportional bars and the owning process per row);
//   - the critical-path decomposition: the campaign's wall-clock split
//     into queue-wait, transport, simulate, verify, journal and
//     orchestration self-time. The categories tile the wall exactly,
//     so "where did the time go" always sums to 100%.
//
// With -html the same campaign is rendered as a static HTML flame
// view (one lane per tree depth, hover for span details). With
// multiple campaigns in the merged files, -trace selects one by ID
// and -list enumerates them, one line per trace sorted by root wall
// time (slowest first) with the root's tenant and cache annotations
// when present; the default is the dominant trace (most spans).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gpustl/internal/obs"
)

func main() {
	var (
		traceID = flag.String("trace", "", "campaign trace ID to render (default: the trace with the most spans)")
		width   = flag.Int("width", 72, "waterfall bar width in columns")
		htmlOut = flag.String("html", "", "also write a static HTML flame view here")
		list    = flag.Bool("list", false, "list the traces in the merged files, slowest first (ID, root wall time, tenant and cache annotations) and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: stltrace [flags] [NAME=]FILE...\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	procs, err := loadTraces(flag.Args())
	if err != nil {
		fatalf("%v", err)
	}
	m, err := obs.MergeTraces(procs)
	if err != nil {
		fatalf("%v", err)
	}

	ids := m.TraceIDs()
	if len(ids) == 0 {
		fatalf("no traced spans in %d file(s)", len(procs))
	}
	if *list {
		for _, l := range m.List() {
			fmt.Println(l)
		}
		return
	}
	id := *traceID
	if id == "" {
		id = ids[0]
	}

	// Skew table first: it qualifies everything below it. A reader who
	// sees a worker bar slightly outside expectation should know what
	// correction was applied and whether the estimate was consistent.
	if len(m.Skew) > 1 {
		fmt.Println("clock skew (offsets applied to reach the reference clock):")
		for _, p := range procNames(procs) {
			fmt.Printf("  %-20s %+v\n", p, m.Skew[p])
		}
		for _, pair := range m.SkewInconsistent {
			fmt.Printf("  warning: inconsistent RPC constraints for %s (midpoint used)\n", pair)
		}
		fmt.Println()
	}

	m.RenderWaterfall(os.Stdout, id, *width)
	fmt.Println()

	if cp := m.CriticalPath(id); cp != nil {
		fmt.Printf("critical path (wall %v):\n", cp.Wall)
		for _, c := range cp.Categories {
			pct := 0.0
			if cp.Wall > 0 {
				pct = 100 * float64(c.Dur) / float64(cp.Wall)
			}
			fmt.Printf("  %-18s %12v  %5.1f%%\n", c.Category, c.Dur, pct)
		}
	}
	if len(ids) > 1 {
		fmt.Printf("\n%d more trace(s) in these files; -list to enumerate, -trace ID to select\n", len(ids)-1)
	}

	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			fatalf("%v", err)
		}
		if err := m.RenderHTML(f, id); err != nil {
			f.Close()
			fatalf("rendering HTML: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("\nflame view written to %s\n", *htmlOut)
	}
}

// loadTraces reads each NAME=FILE (or bare FILE) argument into a
// ProcessTrace. Process names must be unique: the merge attributes
// clock skew per process, so two files under one name would be
// corrected as if one clock produced them.
func loadTraces(args []string) ([]obs.ProcessTrace, error) {
	seen := map[string]bool{}
	var procs []obs.ProcessTrace
	for _, arg := range args {
		name, path, ok := strings.Cut(arg, "=")
		if !ok {
			path = arg
			name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate process name %q; use NAME=FILE to disambiguate", name)
		}
		seen[name] = true
		events, err := obs.ReadTraceFile(path)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		procs = append(procs, obs.ProcessTrace{Proc: name, Events: events})
	}
	return procs, nil
}

func procNames(procs []obs.ProcessTrace) []string {
	names := make([]string, len(procs))
	for i, p := range procs {
		names[i] = p.Proc
	}
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stltrace: "+format+"\n", args...)
	os.Exit(1)
}
