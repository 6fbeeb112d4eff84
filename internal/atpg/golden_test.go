package atpg

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/netlist"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// patternsDigest is the sha256 of a pattern set, every pattern's words
// little-endian in order.
func patternsDigest(pats []circuits.Pattern) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range pats {
		for _, w := range p.W {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPatternsGolden pins the exact pattern sets the generator emits for
// the calls that feed the rest of the repository: perfbench's SP library
// (seed 5, 1,200 sampled faults), the small experiments environment's SP
// and SFU runs (its seeds, samples, random-block budget and keep-all
// count), and PODEM alone over a spread of SP fault sites. Any change to
// the search — decision order, implication, D-frontier, backtracking —
// that alters a single pattern or a single count shows here. Regenerate
// with `go test ./internal/atpg -run PatternsGolden -update` only for a
// change meant to move the generated patterns.
func TestPatternsGolden(t *testing.T) {
	build := func(kind circuits.ModuleKind) *circuits.Module {
		m, err := circuits.Build(kind, 0)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	sp, sfu := build(circuits.ModuleSP), build(circuits.ModuleSFU)

	// The small experiments scale: Seed 1, SP at Seed+20, SFU at Seed+22.
	small := func(seed int64, sample int) Options {
		o := DefaultOptions(seed)
		o.SampleFaults = sample
		o.RandomBlocks = 96
		o.KeepAllBlocks = 3
		return o
	}
	perfbench := DefaultOptions(5)
	perfbench.SampleFaults = 1200

	var b strings.Builder
	for _, c := range []struct {
		name string
		m    *circuits.Module
		opt  Options
	}{
		{"perfbench-sp", sp, perfbench},
		{"small-sp", sp, small(21, 1500)},
		{"small-sfu", sfu, small(23, 1000)},
	} {
		res := generate(t, c.m, c.opt)
		fmt.Fprintf(&b, "%s patterns=%d sha256=%s rand=%d random_det=%d podem_det=%d untestable=%d aborted=%d\n",
			c.name, len(res.Patterns), patternsDigest(res.Patterns),
			res.RandPatterns, res.RandomDet, res.PodemDet, res.Untestable, res.Aborted)
	}

	sites := fault.AllSites(sp.NL)
	var spread []netlist.FaultSite
	for i := 0; i < len(sites); i += len(sites) / 150 {
		spread = append(spread, sites[i])
	}
	pats, untestable, aborted := GenerateForSites(sp.NL, spread, 300)
	fmt.Fprintf(&b, "sites-sp sites=%d patterns=%d sha256=%s untestable=%d aborted=%d\n",
		len(spread), len(pats), patternsDigest(pats), untestable, aborted)
	got := b.String()

	golden := filepath.Join("testdata", "patterns.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("generated pattern sets drifted from the golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
