// Command netlist inspects the generated gate-level modules: size, depth,
// functional-group inventory, fault universe, and optional structural
// Verilog export for external EDA tools.
//
// Usage:
//
//	netlist -module DU|SP|SFU|FP32 [-verilog out.v]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"gpustl"
	"gpustl/internal/circuits"
	"gpustl/internal/obs"
)

func main() {
	var (
		module  = flag.String("module", "SP", "module: DU|SP|SFU|FP32")
		verilog = flag.String("verilog", "", "write structural Verilog to this file")
		logJSON = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, "netlist", slog.LevelInfo, *logJSON)
	fatal := func(err error) {
		logger.Error(err.Error())
		os.Exit(1)
	}

	kind, err := circuits.ParseModuleKind(*module)
	if err != nil {
		fatal(err)
	}
	m, err := gpustl.BuildModule(kind)
	if err != nil {
		fatal(err)
	}
	nl := m.NL
	faults := gpustl.AllFaults(m)
	fmt.Printf("module %s: %d gates, %d nets, depth %d, %d inputs, %d outputs, %d lanes\n",
		nl.Name, nl.NumGates(), nl.NumNets(), nl.Levels(),
		len(nl.Inputs), len(nl.Outputs), m.Lanes)
	fmt.Printf("stuck-at fault universe: %d per lane, %d total\n",
		len(faults)/m.Lanes, len(faults))

	// Group inventory.
	counts := map[string]int{}
	for id := int32(0); id < int32(len(nl.Gates)); id++ {
		g := nl.Gates[id]
		if g.NumIn() == 0 {
			continue
		}
		counts[nl.GroupOf(id)]++
	}
	fmt.Println("functional groups:")
	for _, name := range nl.Groups() {
		if counts[name] == 0 {
			continue
		}
		label := name
		if label == "" {
			label = "(ungrouped)"
		}
		fmt.Printf("  %-18s %6d gates\n", label, counts[name])
	}

	if *verilog != "" {
		f, err := os.Create(*verilog)
		if err != nil {
			fatal(err)
		}
		if err := gpustl.WriteVerilog(f, nl); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *verilog)
	}
}
