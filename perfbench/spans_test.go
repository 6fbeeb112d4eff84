package main

import (
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeOverlappingSiblings(t *testing.T) {
	// Two workers' RPCs overlap inside one fault simulation: the union
	// [10,90) is covered, so 20 of the 100 units are the coordinator's.
	sim := sp(1, 0, "fsim:stage3", 0, 100)
	rpcs := []span{
		sp(2, 1, "rpc", 10, 60),
		sp(3, 1, "rpc", 40, 90),
		sp(4, 1, "rpc", 50, 55), // inside both
	}
	if got := selfTime(sim, rpcs); got != 20 {
		t.Fatalf("self time = %v, want 20", got)
	}
}

func TestSelfTimeNestedStages(t *testing.T) {
	spans := []span{
		sp(1, 0, "campaign", 0, 100),
		sp(2, 1, "stage:trace", 5, 30),
		sp(3, 2, "fsim:orig_fc", 20, 30),
		sp(4, 1, "stage:faultsim", 30, 70),
		sp(5, 4, "fsim:stage3", 30, 69),
		sp(6, 1, "stage:evaluate", 75, 95),
		sp(7, 6, "fsim:comp_fc", 80, 85),
	}
	tr := newTree(spans)
	// Only direct children count: the grandchild simulations are
	// already inside their stages.
	if got := selfTime(spans[0], tr.children[1]); got != 15 {
		t.Errorf("campaign self time = %v, want 15", got)
	}
	if got := tr.selfSum("stage:trace") + tr.selfSum("stage:evaluate"); got != 15+15 {
		t.Errorf("trace+evaluate self time = %v, want 30", got)
	}
	if got := tr.selfSum("stage:faultsim"); got != 1 {
		t.Errorf("faultsim self time = %v, want 1", got)
	}
	if got := tr.sum("fsim:stage3"); got != 39 {
		t.Errorf("stage-3 time = %v, want 39", got)
	}
}

func TestCoveredClipsToParent(t *testing.T) {
	children := []span{sp(2, 1, "rpc", -10, 5), sp(3, 1, "rpc", 90, 120)}
	if got := covered(0, 100, children); got != 15 {
		t.Errorf("covered = %v, want 15", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered with no children = %v, want 0", got)
	}
	if got := selfTime(sp(1, 0, "x", 0, 100), nil); got != 100 {
		t.Errorf("self time with no children = %v, want 100", got)
	}
}

func TestRecorderParents(t *testing.T) {
	rec := newRecorder()
	p := newProbe(rec, 7, "campaign")
	if err := p.onStage("IMM", "trace"); err != nil {
		t.Fatal(err)
	}
	sim := p.beginSim()
	p.endSim(sim, nil)
	p.finish()
	spans := rec.byCampaign()[7]
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	root, stage, fsim := spans[0], spans[1], spans[2]
	if root.Parent != 0 || stage.Parent != root.ID || fsim.Parent != stage.ID {
		t.Errorf("parents: root %d stage %d fsim %d", root.Parent, stage.Parent, fsim.Parent)
	}
	if fsim.Name != "fsim:orig_fc" {
		t.Errorf("first simulation named %q, want fsim:orig_fc", fsim.Name)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	var nilProbe *probe // untraced campaigns: every call is a no-op
	nilProbe.add("x", time.Now(), time.Now())
	nilProbe.end(nilProbe.begin("x"))
	nilProbe.finish()
}
