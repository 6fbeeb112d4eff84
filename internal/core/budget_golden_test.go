package core

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
	"gpustl/internal/gpu"
	"gpustl/internal/ptpgen"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// idsDigest is the sha256 of a fault-id set, each id as 4 little-endian
// bytes in the set's (ascending) order.
func idsDigest(ids []fault.ID) string {
	h := sha256.New()
	var b [4]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint32(b[:], uint32(id))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCompactToBudgetGolden pins CompactToBudget's results on the
// time_budget example's PTP, fault sample and budgets (each on a fresh
// compactor), and the refusal of a budget below the mandatory cost.
// Regenerate with `go test ./internal/core -run BudgetGolden -update`
// only for a change meant to move the budget extension's results.
func TestCompactToBudgetGolden(t *testing.T) {
	m := module(t, circuits.ModuleDU)
	faults := sampledFaults(t, m, 4000, 5)
	p := ptpgen.IMM(200, 5)
	ref, err := New(gpu.DefaultConfig(), m, faults, Options{}).CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d instrs, %d cc\n", p.Name, ref.OrigSize, ref.OrigDuration)
	for _, pct := range []uint64{100, 50, 25, 10, 5} {
		budget := ref.OrigDuration * pct / 100
		res, err := New(gpu.DefaultConfig(), m, faults, Options{}).CompactToBudget(p, budget)
		if err != nil {
			fmt.Fprintf(&b, "%3d%% %d cc: %v\n", pct, budget, err)
			continue
		}
		fmt.Fprintf(&b, "%3d%% %d cc: size=%d duration=%d fc=%v removed_sbs=%d detected_this_run=%d orig_detected=%s comp_detected=%s\n",
			pct, budget, res.CompSize, res.CompDuration, res.CompFC, res.RemovedSBs,
			res.DetectedThisRun, idsDigest(res.OrigDetected), idsDigest(res.CompDetected))
	}
	cntrl := ptpgen.CNTRL(10, 8)
	_, err = New(gpu.DefaultConfig(), m, sampledFaults(t, m, 500, 7), Options{}).CompactToBudget(cntrl, 10)
	fmt.Fprintf(&b, "%s 10 cc: %v\n", cntrl.Name, err)

	got := b.String()
	golden := filepath.Join("testdata", "budget.golden")
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
		t.Errorf("budget results drifted from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
