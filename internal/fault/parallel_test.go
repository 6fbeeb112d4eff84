package fault

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestParallelMatchesSerial verifies that worker count never changes the
// outcome: same detections, same first-detection patterns, same campaign
// state.
func TestParallelMatchesSerial(t *testing.T) {
	m := spModule(t)
	r := rand.New(rand.NewSource(21))
	stream := randomSPStream(r, m.Lanes, 2048)

	run := func(workers int) (*Report, int) {
		c := NewCampaign(m)
		c.SampleFaults(1500, 9)
		rep := simulate(t, c, false, stream, SimOptions{Workers: workers})
		return rep, c.Detected()
	}

	refRep, refDet := run(1)
	for _, w := range []int{2, 4, 7} {
		rep, det := run(w)
		if det != refDet {
			t.Fatalf("workers=%d: detected %d != serial %d", w, det, refDet)
		}
		if len(rep.Detections) != len(refRep.Detections) {
			t.Fatalf("workers=%d: %d detections != %d", w, len(rep.Detections), len(refRep.Detections))
		}
		for i := range rep.Detections {
			if rep.Detections[i] != refRep.Detections[i] {
				t.Fatalf("workers=%d: detection %d = %+v, want %+v",
					w, i, rep.Detections[i], refRep.Detections[i])
			}
		}
		for i := range rep.DetectedPerPattern {
			if rep.DetectedPerPattern[i] != refRep.DetectedPerPattern[i] {
				t.Fatalf("workers=%d: per-pattern count %d differs", w, i)
			}
		}
	}
}

// TestParallelDroppingAcrossRuns checks that a parallel run updates the
// shared campaign exactly like a serial one (cross-PTP dropping intact).
func TestParallelDroppingAcrossRuns(t *testing.T) {
	m := spModule(t)
	r := rand.New(rand.NewSource(22))
	s1 := randomSPStream(r, m.Lanes, 1024)
	s2 := randomSPStream(r, m.Lanes, 1024)

	serial := NewCampaign(m)
	serial.SampleFaults(1000, 3)
	simulate(t, serial, false, s1, SimOptions{})
	repS := simulate(t, serial, false, s2, SimOptions{})

	par := NewCampaign(m)
	par.SampleFaults(1000, 3)
	simulate(t, par, false, s1, SimOptions{Workers: 4})
	repP := simulate(t, par, false, s2, SimOptions{Workers: 4})

	if repS.DetectedThisRun() != repP.DetectedThisRun() {
		t.Fatalf("second-run detections differ: %d vs %d",
			repS.DetectedThisRun(), repP.DetectedThisRun())
	}
	if serial.Detected() != par.Detected() {
		t.Fatalf("campaign state differs: %d vs %d", serial.Detected(), par.Detected())
	}
}

func BenchmarkSimulateSPParallel(b *testing.B) {
	m := spModule(b)
	r := rand.New(rand.NewSource(1))
	stream := randomSPStream(r, m.Lanes, 8192)
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCampaign(m)
		c.SampleFaults(5000, 1)
		simulate(b, c, false, stream, SimOptions{Workers: workers})
	}
}
