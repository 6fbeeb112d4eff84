package fault

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"gpustl/internal/obs"
)

// TestSimulateNoLiveFault checks that a run with every fault already
// detected returns the empty report without packing the stream, and
// still counts as a run.
func TestSimulateNoLiveFault(t *testing.T) {
	m := spModule(t)
	c := NewCampaign(m)
	c.SampleFaults(500, 1)
	if err := c.Only(nil); err != nil {
		t.Fatal(err)
	}
	stream := randomSPStream(rand.New(rand.NewSource(3)), m.Lanes, 300)
	reg := obs.NewRegistry()
	rep, err := c.SimulateCtx(context.Background(), stream, SimOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Stream, stream) {
		t.Fatal("report stream is not the given stream")
	}
	if len(rep.DetectedPerPattern) != len(stream) || len(rep.Detections) != 0 {
		t.Fatalf("%d per-pattern counts, %d detections", len(rep.DetectedPerPattern), len(rep.Detections))
	}
	for i, n := range rep.DetectedPerPattern {
		if n != 0 {
			t.Fatalf("pattern %d counts %d detections", i, n)
		}
	}
	if rep.Stats != (SimStats{}) {
		t.Fatalf("stats %+v, want none: the stream was packed", rep.Stats)
	}
	if got := reg.Counter("gpustl_fault_runs_total").Value(); got != 1 {
		t.Fatalf("gpustl_fault_runs_total = %d, want 1", got)
	}
}

// TestFreshAndOnly checks that a Fresh campaign shares the fault list
// with a detection state of its own, and that a run after Only simulates
// exactly the faults left live.
func TestFreshAndOnly(t *testing.T) {
	m := spModule(t)
	c := NewCampaign(m)
	c.SampleFaults(1500, 2)
	stream := randomSPStream(rand.New(rand.NewSource(4)), m.Lanes, 1024)
	full := simulate(t, c.Fresh(), false, stream, SimOptions{})

	f := c.Fresh()
	if &f.Faults()[0] != &c.Faults()[0] {
		t.Fatal("Fresh copied the fault list")
	}
	var live []ID
	for i, d := range full.Detections {
		if i%3 == 0 {
			live = append(live, d.Fault)
		}
	}
	if err := f.Only(live); err != nil {
		t.Fatal(err)
	}
	if f.Remaining() != len(live) || c.Detected() != 0 {
		t.Fatalf("Only left %d live of %d; the original has %d detected", f.Remaining(), len(live), c.Detected())
	}
	rep := simulate(t, f, false, stream, SimOptions{})
	var want []Detection
	for i, d := range full.Detections {
		if i%3 == 0 {
			want = append(want, d)
		}
	}
	if !reflect.DeepEqual(rep.Detections, want) {
		t.Fatalf("run after Only: %d detections, want %d", len(rep.Detections), len(want))
	}
	g := c.Fresh()
	if err := g.Only([]ID{0, ID(c.Total())}); err == nil || g.Detected() != 0 {
		t.Fatalf("Only accepted an id past the list (err %v) or mutated the campaign", err)
	}
}
