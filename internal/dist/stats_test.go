package dist

import (
	"context"
	"math/rand"
	"testing"

	"gpustl/internal/fault"
	"gpustl/internal/obs"
)

// TestShardStatsAggregation pins down the engine-stats ride of the
// shard protocol: each worker reports its engine counters in the
// ShardResult, the coordinator sums accepted replies into
// Result.SimStats, and the metrics registry mirrors the totals.
func TestShardStatsAggregation(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(77)), m.Lanes, 256)

	reg := obs.NewRegistry()
	opt := fastOptions()
	opt.Metrics = reg
	co, err := New(opt, NewLocal("w0"), NewLocal("w1"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	camp := newSPCampaign(t, m, 600, 31)
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ss := res.SimStats
	if ss.FaultEvals == 0 || ss.Blocks == 0 {
		t.Fatalf("no engine stats aggregated from shard replies: %+v", ss)
	}
	if ss.TotalPatterns == 0 || ss.UniquePatterns != ss.TotalPatterns {
		t.Fatalf("implausible pattern counters: %+v", ss)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"gpustl_fault_blocks_total":          ss.Blocks,
		"gpustl_fault_patterns_total":        ss.TotalPatterns,
		"gpustl_fault_evals_total":           ss.FaultEvals,
		"gpustl_fault_cone_skips_total":      ss.ConeSkips,
		"gpustl_fault_prescreen_skips_total": ss.PrescreenSkips,
		"gpustl_fault_propagations_total":    ss.Propagations,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if g := snap.Gauges["gpustl_fault_prescreen_skip_ratio"]; g != ss.PrescreenSkipRatio() {
		t.Errorf("prescreen skip-ratio gauge = %v, want %v", g, ss.PrescreenSkipRatio())
	}
}
