package main

import (
	"context"
	"testing"
)

// TestExactCountsRepeat runs two short traced runs of each workload
// with the same seed: every work count must come out identical, since
// a simulator-speed change may never move them.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole campaigns")
	}
	exact := []string{
		"gpu.warp_instructions", "gpu.sim_cycles", "trace.patterns",
		"fault.calls", "fault.fault_evals", "dist.shards",
	}
	wantCalls := map[string]float64{"du-lib": 9, "sp-lib": 6, "sp-served": 6}
	for _, wl := range []string{"du-lib", "sp-lib", "sp-served"} {
		t.Run(wl, func(t *testing.T) {
			cfg := config{workload: wl, seed: 3, seconds: 1, trace: true, workDir: t.TempDir(), setups: 1}
			var runs [2]result
			for i := range runs {
				res, err := measure(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("run %d: correct=%v failed=%d", i, res.Correct, res.Failed)
				}
				runs[i] = res
			}
			for _, name := range exact {
				a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
				if a != b {
					t.Errorf("%s: %v then %v", name, a, b)
				}
			}
			if got := runs[0].Metrics["fault.calls"].Value; got != wantCalls[wl] {
				t.Errorf("fault.calls = %v, want %v", got, wantCalls[wl])
			}
			for _, name := range exact[:5] {
				if runs[0].Metrics[name].Value == 0 {
					t.Errorf("%s is 0", name)
				}
			}
			if shards := runs[0].Metrics["dist.shards"].Value; (wl == "sp-served") != (shards > 0) {
				t.Errorf("dist.shards = %v on %s", shards, wl)
			}
		})
	}
}
