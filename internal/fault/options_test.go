package fault

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"gpustl/internal/circuits"
)

// randomDUStream builds a random single-lane DU pattern stream (raw input
// bits; any bit vector is a legal gate-level pattern).
func randomDUStream(r *rand.Rand, n int) []TimedPattern {
	stream := make([]TimedPattern, n)
	for i := range stream {
		stream[i] = TimedPattern{
			CC:   uint64(i * 3),
			Lane: 0,
			PC:   int32(i),
			Pat:  circuits.Pattern{W: [2]uint64{r.Uint64(), r.Uint64()}},
		}
	}
	return stream
}

// TestWorkersNegativeRejected verifies that a negative worker count is an
// error instead of silently aliasing to serial.
func TestWorkersNegativeRejected(t *testing.T) {
	m := duModule(t)
	c := NewCampaign(m)
	c.SampleFaults(200, 1)
	r := rand.New(rand.NewSource(5))
	stream := randomDUStream(r, 64)

	for _, w := range []int{-1, -8} {
		_, err := c.SimulateCtx(context.Background(), stream, SimOptions{Workers: w})
		if err == nil {
			t.Fatalf("Workers=%d: want error, got nil", w)
		}
		if !strings.Contains(err.Error(), "Workers") {
			t.Fatalf("Workers=%d: error %q does not name the option", w, err)
		}
	}
}

// TestWorkersZeroDefaultsToGOMAXPROCS verifies that Workers=0 resolves to
// runtime.GOMAXPROCS(0) (capped for small campaigns) and that the result
// is identical to an explicit serial run.
func TestWorkersZeroDefaultsToGOMAXPROCS(t *testing.T) {
	m := spModule(t)
	r := rand.New(rand.NewSource(6))
	stream := randomSPStream(r, m.Lanes, 1024)

	run := func(workers int) (*Report, int) {
		c := NewCampaign(m)
		c.SampleFaults(1200, 7)
		rep, err := c.SimulateCtx(context.Background(), stream, SimOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return rep, c.Detected()
	}

	// The plan must resolve 0 to the GOMAXPROCS default (modulo the
	// small-campaign cap), never to serial-by-accident.
	c := NewCampaign(m)
	c.SampleFaults(1200, 7)
	got, err := c.planWorkers(SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := runtime.GOMAXPROCS(0)
	if cap := c.Remaining() / minFaultsPerWorker; want > 1 && cap < want {
		want = cap
		if want < 1 {
			want = 1
		}
	}
	if got != want {
		t.Fatalf("planWorkers(0) = %d, want %d", got, want)
	}

	defRep, defDet := run(0)
	serRep, serDet := run(1)
	if defDet != serDet {
		t.Fatalf("default workers detected %d, serial %d", defDet, serDet)
	}
	if len(defRep.Detections) != len(serRep.Detections) {
		t.Fatalf("detection counts differ: %d vs %d", len(defRep.Detections), len(serRep.Detections))
	}
	for i := range defRep.Detections {
		if defRep.Detections[i] != serRep.Detections[i] {
			t.Fatalf("detection %d differs: %+v vs %+v", i, defRep.Detections[i], serRep.Detections[i])
		}
	}
}

// TestRecordActivationsWorkersAgree verifies that activation counts do
// not depend on sharding: a four-worker run counts the same activations
// (and detections) as a serial one, without falling back to serial.
func TestRecordActivationsWorkersAgree(t *testing.T) {
	m := spModule(t)
	r := rand.New(rand.NewSource(8))
	stream := dupStream(randomSPStream(r, m.Lanes, 256))

	run := func(workers int) *Report {
		c := NewCampaign(m)
		c.SampleFaults(1200, 2)
		if got, err := c.planWorkers(SimOptions{Workers: workers}); err != nil || got != workers {
			t.Fatalf("planWorkers(%d) = %d, %v", workers, got, err)
		}
		rep, err := c.SimulateCtx(context.Background(), stream, SimOptions{
			RecordActivations: true, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial, sharded := run(1), run(4)
	var total int64
	for i, want := range serial.ActivatedPerPattern {
		total += int64(want)
		if got := sharded.ActivatedPerPattern[i]; got != want {
			t.Fatalf("pattern %d: %d activations with 4 workers, %d serial", i, got, want)
		}
	}
	if total == 0 {
		t.Fatal("no activations recorded")
	}
	if len(serial.Detections) != len(sharded.Detections) {
		t.Fatalf("detection counts differ: serial %d, sharded %d",
			len(serial.Detections), len(sharded.Detections))
	}
	for i := range serial.Detections {
		if serial.Detections[i] != sharded.Detections[i] {
			t.Fatalf("detection %d differs: serial %+v, sharded %+v",
				i, serial.Detections[i], sharded.Detections[i])
		}
	}
}
