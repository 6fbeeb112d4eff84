package fault

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"gpustl/internal/netlist"
)

func TestSimulateCtxCanceledCommitsNothing(t *testing.T) {
	m := spModule(t)
	c := NewCampaign(m)
	c.SampleFaults(2000, 3)
	stream := randomSPStream(rand.New(rand.NewSource(3)), m.Lanes, 256)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		rep, err := c.SimulateCtx(ctx, stream, SimOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: canceled context accepted", workers)
		}
		if rep != nil {
			t.Fatalf("workers=%d: got report despite cancellation", workers)
		}
		if c.Detected() != 0 {
			t.Fatalf("workers=%d: canceled run committed %d detections",
				workers, c.Detected())
		}
	}

	// The same campaign still works once the context is live again.
	rep, err := c.SimulateCtx(context.Background(), stream, SimOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DetectedThisRun() == 0 {
		t.Fatal("no detections after recovery from cancellation")
	}
}

func TestSimulateCtxWorkerPanicRecovered(t *testing.T) {
	m := spModule(t)
	// A fault site pointing past the end of the gate list makes a
	// simulation worker panic with an index error. Construction refuses
	// such a site, so the list is corrupted after it. The campaign must
	// surface the panic as an error, not crash the process.
	faults := []Fault{
		{Lane: 0, Site: netlist.FaultSite{Gate: 1, Pin: -1, SA1: true}},
		{Lane: 0, Site: netlist.FaultSite{Gate: 2, Pin: -1, SA1: false}},
	}
	stream := randomSPStream(rand.New(rand.NewSource(5)), m.Lanes, 128)
	for _, workers := range []int{1, 4} {
		c := NewCampaignWithFaults(m, faults)
		c.faults[1].Site.Gate = 1 << 20
		rep, err := c.SimulateCtx(context.Background(), stream,
			SimOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: bogus fault site did not error", workers)
		}
		if !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("workers=%d: error does not mention panic: %v", workers, err)
		}
		if rep != nil {
			t.Fatalf("workers=%d: got report despite panic", workers)
		}
		if c.Detected() != 0 {
			t.Fatalf("workers=%d: failed run committed %d detections",
				workers, c.Detected())
		}
	}
}

func TestDetectedIDsRestoreRoundTrip(t *testing.T) {
	m := spModule(t)
	c := NewCampaign(m)
	c.SampleFaults(2000, 7)
	stream := randomSPStream(rand.New(rand.NewSource(7)), m.Lanes, 256)
	rep, err := c.SimulateCtx(context.Background(), stream, SimOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DetectedThisRun() == 0 {
		t.Fatal("no detections to snapshot")
	}

	ids := c.DetectedIDs()
	if len(ids) != c.Detected() {
		t.Fatalf("DetectedIDs len %d != Detected %d", len(ids), c.Detected())
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("DetectedIDs not strictly ascending at %d", i)
		}
	}

	// A fresh campaign over the same sampled list restores to the same
	// dropped set: re-simulating the same stream detects nothing new.
	c2 := NewCampaign(m)
	c2.SampleFaults(2000, 7)
	if err := c2.RestoreDetected(ids); err != nil {
		t.Fatal(err)
	}
	if c2.Detected() != c.Detected() {
		t.Fatalf("restored %d detections, want %d", c2.Detected(), c.Detected())
	}
	rep2, err := c2.SimulateCtx(context.Background(), stream, SimOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.DetectedThisRun() != 0 {
		t.Fatalf("restored campaign re-detected %d faults", rep2.DetectedThisRun())
	}

	// Restoring is idempotent; out-of-range ids are rejected untouched.
	if err := c2.RestoreDetected(ids); err != nil {
		t.Fatal(err)
	}
	before := c2.Detected()
	if err := c2.RestoreDetected([]ID{ID(c2.Total() + 5)}); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if c2.Detected() != before {
		t.Fatal("failed restore mutated campaign")
	}
}

func TestCampaignErrSurfacesMalformedFault(t *testing.T) {
	m := spModule(t)
	bad := Fault{Site: netlist.FaultSite{Gate: int32(len(m.NL.Gates)), Pin: -1}}
	c := NewCampaignWithFaults(m, []Fault{{Site: AllSites(m.NL)[0]}, bad})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "outside the module") {
		t.Fatalf("campaign with a fault past the netlist: Err() = %v", err)
	}
	stream := randomSPStream(rand.New(rand.NewSource(5)), m.Lanes, 8)
	if _, err := c.SimulateCtx(context.Background(), stream, SimOptions{}); err == nil {
		t.Fatal("SimulateCtx ignored construction error")
	}
	if c.Detected() != 0 {
		t.Fatalf("failed campaign committed %d detections", c.Detected())
	}
}
