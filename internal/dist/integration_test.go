package dist_test

import (
	"reflect"
	"testing"
	"time"

	"gpustl/internal/circuits"
	"gpustl/internal/core"
	"gpustl/internal/dist"
	"gpustl/internal/failpoint"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/ptpgen"
)

// TestCompactorWithDistSimulator runs the full five-stage compaction of
// a DU PTP twice — in-process and through a distributed coordinator
// (with one chaotic worker in the fleet) — and requires identical
// results: same compacted program, same FC numbers, same labeling
// counts. This is the contract core.Options.Simulator is wired on.
func TestCompactorWithDistSimulator(t *testing.T) {
	m, err := circuits.Build(circuits.ModuleDU, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc := fault.NewCampaign(m)
	fc.SampleFaults(1500, 2)
	faults := fc.Faults()
	cfg := gpu.DefaultConfig()
	p := ptpgen.IMM(40, 3)

	serial := core.New(cfg, m, faults, core.Options{})
	want, err := serial.CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}

	chaosSet, err := failpoint.NewSet(map[string]failpoint.Config{
		"dist.reply.drop":    {Kind: failpoint.KindDrop, Prob: 0.3, Seed: 7},
		"dist.reply.corrupt": {Kind: failpoint.KindCorrupt, Prob: 0.3, Seed: 8, Bit: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	co, err := dist.New(dist.Options{
		MaxAttempts:       8,
		BaseBackoff:       2 * time.Millisecond,
		MaxBackoff:        25 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		Shards:            6,
		Seed:              3,
	},
		dist.NewLocal("w1"),
		dist.WithFailpoints(dist.NewLocal("w2"), chaosSet),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	distd := core.New(cfg, m, faults, core.Options{Simulator: co})
	got, err := distd.CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got.Compacted.Prog, want.Compacted.Prog) {
		t.Fatalf("compacted programs differ: %d vs %d instructions",
			len(got.Compacted.Prog), len(want.Compacted.Prog))
	}
	if got.OrigFC != want.OrigFC || got.CompFC != want.CompFC {
		t.Fatalf("FC differs: %.4f->%.4f vs %.4f->%.4f",
			got.OrigFC, got.CompFC, want.OrigFC, want.CompFC)
	}
	if got.Essential != want.Essential || got.Unessential != want.Unessential {
		t.Fatalf("labeling differs: %d/%d vs %d/%d",
			got.Essential, got.Unessential, want.Essential, want.Unessential)
	}
	if got.DetectedThisRun != want.DetectedThisRun {
		t.Fatalf("DetectedThisRun %d vs %d", got.DetectedThisRun, want.DetectedThisRun)
	}
	if serial.Campaign.Detected() != distd.Campaign.Detected() {
		t.Fatalf("shared campaigns diverged: %d vs %d",
			serial.Campaign.Detected(), distd.Campaign.Detected())
	}
}
