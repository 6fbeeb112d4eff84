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
	for _, reverse := range []bool{false, true} {
		rep, err := c.SimulateCtx(context.Background(), stream, SimOptions{Reverse: reverse, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if want := OrderStream(stream, reverse); !reflect.DeepEqual(rep.Stream, want) {
			t.Fatalf("reverse=%v: report stream is not the application-order stream", reverse)
		}
		if len(rep.DetectedPerPattern) != len(stream) || len(rep.Detections) != 0 {
			t.Fatalf("reverse=%v: %d per-pattern counts, %d detections", reverse,
				len(rep.DetectedPerPattern), len(rep.Detections))
		}
		for i, n := range rep.DetectedPerPattern {
			if n != 0 {
				t.Fatalf("reverse=%v: pattern %d counts %d detections", reverse, i, n)
			}
		}
		if rep.Stats != (SimStats{}) {
			t.Fatalf("reverse=%v: stats %+v, want none: the stream was packed", reverse, rep.Stats)
		}
	}
	if got := reg.Counter("gpustl_fault_runs_total").Value(); got != 2 {
		t.Fatalf("gpustl_fault_runs_total = %d, want 2", got)
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

// TestSurvivingMatchesLaneAndVector checks that a detection survives
// exactly when its (lane, input vector) occurs in the new stream, at any
// position and clock cycle, and not for the same vector in another lane.
func TestSurvivingMatchesLaneAndVector(t *testing.T) {
	m := spModule(t)
	c := NewCampaign(m)
	c.SampleFaults(1500, 3)
	stream := randomSPStream(rand.New(rand.NewSource(5)), m.Lanes, 512)
	rep := simulate(t, c, false, stream, SimOptions{})
	if len(rep.Detections) < 2 {
		t.Fatal("too few detections to test")
	}
	keep, moved := rep.Detections[0], rep.Detections[len(rep.Detections)-1]
	kp, mp := stream[keep.Pattern], stream[moved.Pattern]
	mp.Lane = (mp.Lane + 1) % int16(m.Lanes)
	kp.CC += 1000
	next := []TimedPattern{mp, kp}

	var want []ID
	for _, d := range rep.Detections {
		if p := stream[d.Pattern]; p.Lane == kp.Lane && p.Pat == kp.Pat ||
			p.Lane == mp.Lane && p.Pat == mp.Pat {
			want = append(want, d.Fault)
		}
	}
	if got := rep.Surviving(next); !reflect.DeepEqual(got, want) {
		t.Fatalf("Surviving = %v, want %v", got, want)
	}
	if got := rep.Surviving(nil); got != nil {
		t.Fatalf("Surviving(empty stream) = %v", got)
	}
}
