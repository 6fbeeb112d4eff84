package fault

import (
	"testing"

	"gpustl/internal/circuits"
)

func pipeModule(t testing.TB) *circuits.Module {
	t.Helper()
	m, err := circuits.Build(circuits.ModulePIPE, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pipeStream builds a functional fetch sequence: enabled cycles with
// varied words and pcs.
func pipeStream(n int) []TimedPattern {
	out := make([]TimedPattern, n)
	for i := range out {
		word := uint64(i)*0x9E3779B97F4A7C15 + 0x1234
		out[i] = TimedPattern{
			CC: uint64(i * 65), PC: int32(i), Warp: 0,
			Pat: circuits.EncodePIPEPattern(word, uint32(i), true, false),
		}
	}
	return out
}

func TestSeqCampaignDetectsRegisterFaults(t *testing.T) {
	m := pipeModule(t)
	c, err := NewSeqCampaign(m)
	if err != nil {
		t.Fatal(err)
	}
	if c.Total() == 0 {
		t.Fatal("empty fault list")
	}
	rep, err := c.Simulate(pipeStream(128))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DetectedThisRun() == 0 {
		t.Fatal("no sequential detections")
	}
	// A varied fetch stream toggles every register both ways: coverage of
	// the register bank must be high.
	if c.Coverage() < 85 {
		t.Errorf("pipeline register coverage only %.2f%%", c.Coverage())
	}
	t.Logf("PIPE: %d faults, %.2f%% coverage from %d cycles",
		c.Total(), c.Coverage(), len(rep.Stream))

	// Per-pattern counts sum to detections; ccs preserved.
	var sum int32
	for _, n := range rep.DetectedPerPattern {
		sum += n
	}
	if int(sum) != len(rep.Detections) {
		t.Fatalf("per-pattern sum %d != %d", sum, len(rep.Detections))
	}
	for _, d := range rep.Detections {
		if rep.Stream[d.Pattern].CC != d.CC {
			t.Fatalf("detection cc mismatch: %+v", d)
		}
	}

	// Second identical run detects nothing new (dropping persists).
	rep2, err := c.Simulate(pipeStream(128))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.DetectedThisRun() != 0 {
		t.Fatalf("re-detected %d", rep2.DetectedThisRun())
	}
	c.Reset()
	rep3, err := c.Simulate(pipeStream(128))
	if err != nil {
		t.Fatal(err)
	}
	if rep3.DetectedThisRun() != rep.DetectedThisRun() {
		t.Fatalf("after reset: %d != %d", rep3.DetectedThisRun(), rep.DetectedThisRun())
	}
}

func TestSeqCampaignStuckValidNeedsFlushlessStream(t *testing.T) {
	// The valid bit stuck at 1 is undetectable in an always-enabled,
	// never-flushed stream (valid is constantly 1 functionally): some
	// faults need flush cycles. Adding flushes must increase coverage.
	m := pipeModule(t)
	plain, err := NewSeqCampaign(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Simulate(pipeStream(64)); err != nil {
		t.Fatal(err)
	}

	flushy, err := NewSeqCampaign(m)
	if err != nil {
		t.Fatal(err)
	}
	stream := pipeStream(64)
	for i := range stream {
		if i%7 == 3 { // periodic flush and stall cycles
			word, pc, _, _ := circuits.DecodePIPEPattern(stream[i].Pat)
			stream[i].Pat = circuits.EncodePIPEPattern(word, pc, i%14 == 3, true)
		}
	}
	if _, err := flushy.Simulate(stream); err != nil {
		t.Fatal(err)
	}
	if flushy.Detected() <= plain.Detected() {
		t.Errorf("flush/stall cycles did not add coverage: %d vs %d",
			flushy.Detected(), plain.Detected())
	}
	t.Logf("coverage: plain %.2f%%, with flush/stall %.2f%%",
		plain.Coverage(), flushy.Coverage())
}

func TestSeqCampaignRejectsCombinational(t *testing.T) {
	m, err := circuits.Build(circuits.ModuleDU, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSeqCampaign(m); err == nil {
		t.Fatal("combinational module accepted")
	}
}
