package main

import (
	"runtime"
	"time"
)

// layerMetric is one per-layer metric. Counts (exact) come from the
// first traced campaign, which the seed fixes, so two runs with the
// same seed must print the same count; times are medians over traced
// campaigns.
type layerMetric struct {
	name, unit string
	exact      bool
}

// layerMetrics lists every per-layer metric in the order BENCHMARK.json
// declares them. A layer a workload does not exercise reads 0.
var layerMetrics = []layerMetric{
	{"gpu.logic_sim_s", "s", false},
	{"gpu.warp_instructions", "count", true},
	{"gpu.sim_cycles", "count", true},
	{"gpu.ns_per_warp_instruction", "ns", false},
	{"trace.collect_s", "s", false},
	{"trace.patterns", "count", true},
	{"fault.orig_fc_s", "s", false},
	{"fault.stage3_s", "s", false},
	{"fault.comp_fc_s", "s", false},
	{"fault.calls", "count", true},
	{"fault.fault_evals", "count", true},
	{"fault.propagations", "count", true},
	{"fault.blocks", "count", true},
	{"fault.dedup_ratio", "ratio", true},
	{"fault.ns_per_fault_eval", "ns", false},
	{"core.reduce_s", "s", false},
	{"run.self_s", "s", false},
	{"server.submit_s", "s", false},
	{"server.pre_sim_s", "s", false},
	{"server.post_sim_s", "s", false},
	{"server.cache_hit_s", "s", false},
	{"server.cache_hit_ratio", "ratio", false},
	{"journal.bytes_per_campaign", "B", false},
	{"server.cache_bytes_per_campaign", "B", false},
	{"dist.campaign_s", "s", false},
	{"dist.rpc_s", "s", false},
	{"dist.worker_s", "s", false},
	{"dist.wire_s", "s", false},
	{"dist.coord_self_s", "s", false},
	{"dist.shards", "count", true},
	{"dist.dispatches", "count", true},
	{"dist.retries_hedges", "count", true},
	{"dist.bytes", "B", true},
	{"bench.tracing_overhead_pct", "%", false},
	{"bench.failed_ratio", "ratio", false},
	{"bench.gomaxprocs", "count", false},
}

// campaignLayers derives one traced campaign's layer values from its
// spans, its probe's counters and its replays.
func campaignLayers(t tree, s sample) map[string]float64 {
	w, rs := s.probe.work(), s.replay
	v := map[string]float64{}
	var sims []span
	var simTotal time.Duration
	for _, k := range simKinds {
		sims = append(sims, t.named(k)...)
		simTotal += t.sum(k)
	}
	v["fault.orig_fc_s"] = t.sum(simKinds[0]).Seconds()
	v["fault.stage3_s"] = t.sum(simKinds[1]).Seconds()
	v["fault.comp_fc_s"] = t.sum(simKinds[2]).Seconds()
	v["fault.calls"] = float64(w.calls)
	v["fault.fault_evals"] = float64(w.stats.FaultEvals)
	v["fault.propagations"] = float64(w.stats.Propagations)
	v["fault.blocks"] = float64(w.stats.Blocks)
	if w.stats.TotalPatterns > 0 {
		v["fault.dedup_ratio"] = float64(w.stats.UniquePatterns) / float64(w.stats.TotalPatterns)
	}

	v["gpu.warp_instructions"] = float64(rs.instructions)
	v["gpu.sim_cycles"] = float64(rs.cycles)
	if s.cycles > 0 {
		v["gpu.sim_cycles"] = float64(s.cycles)
	}
	if rs.instructions > 0 {
		v["gpu.ns_per_warp_instruction"] = float64(rs.bare.Nanoseconds()) / float64(rs.instructions)
	}
	v["trace.collect_s"] = (rs.collected - rs.bare).Seconds()
	v["trace.patterns"] = float64(rs.patterns)

	submits := t.named("submit")
	if len(submits) == 0 {
		// In process: stage spans tile each PTP, fault simulations nest
		// inside the trace, faultsim and evaluate stages.
		v["gpu.logic_sim_s"] = (t.selfSum("stage:trace") + t.selfSum("stage:evaluate")).Seconds()
		v["core.reduce_s"] = (t.sum("stage:partition") + t.sum("stage:reduce") + t.sum("stage:reassemble")).Seconds()
		root := t.named("campaign")[0]
		v["run.self_s"] = selfTime(root, t.children[root.ID]).Seconds()
		if w.stats.FaultEvals > 0 {
			v["fault.ns_per_fault_eval"] = float64(simTotal.Nanoseconds()) / float64(w.stats.FaultEvals)
		}
		return v
	}

	// Served: the server exposes no stage hook, so time is split at the
	// submit call, the fault-simulation calls and the result fetch.
	submit, got := submits[0], t.named("result")[0]
	v["server.submit_s"] = submit.dur().Seconds()
	if len(sims) > 0 {
		first, last := sims[0], sims[0]
		for _, s := range sims {
			first.Start = min(first.Start, s.Start)
			last.End = max(last.End, s.End)
		}
		v["server.pre_sim_s"] = (first.Start - submit.End).Seconds()
		v["server.post_sim_s"] = (got.Start - last.End).Seconds()
	}
	rpc, worker := t.sum("rpc"), t.sum("worker")
	v["dist.campaign_s"] = simTotal.Seconds()
	v["dist.rpc_s"] = rpc.Seconds()
	v["dist.worker_s"] = worker.Seconds()
	v["dist.wire_s"] = (rpc - worker).Seconds()
	var coord time.Duration
	for _, s := range sims {
		var rpcs []span
		for _, c := range t.children[s.ID] {
			if c.Name == "rpc" {
				rpcs = append(rpcs, c)
			}
		}
		coord += selfTime(s, rpcs)
	}
	v["dist.coord_self_s"] = coord.Seconds()
	v["dist.shards"] = float64(w.shards)
	v["dist.dispatches"] = float64(w.dispatches)
	v["dist.retries_hedges"] = float64(w.dispatches - w.shards)
	v["dist.bytes"] = float64(w.wireBytes)
	if w.stats.FaultEvals > 0 {
		v["fault.ns_per_fault_eval"] = float64(worker.Nanoseconds()) / float64(w.stats.FaultEvals)
	}
	return v
}

// perLayer fills the per-layer metrics of a traced run. journalBytes
// and cacheBytes are the state directory's growth over the timed phase.
func perLayer(res *result, rec *recorder, samples []sample, journalBytes, cacheBytes int64) {
	spans := rec.byCampaign()
	values := map[string][]float64{}
	first := map[string]float64{}
	var traced, untraced, hits []float64
	for i, s := range samples {
		switch {
		case s.failed:
		case s.hit:
			hits = append(hits, s.wall.Seconds())
		case s.probe == nil:
			untraced = append(untraced, s.wall.Seconds())
		default:
			traced = append(traced, s.wall.Seconds())
			lv := campaignLayers(newTree(spans[i]), s)
			if len(first) == 0 {
				first = lv
			}
			for k, x := range lv {
				values[k] = append(values[k], x)
			}
		}
	}
	n := float64(len(samples))
	for _, m := range layerMetrics {
		v := median(values[m.name])
		if m.exact {
			v = first[m.name]
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	set := func(name string, v float64) { res.Metrics[name] = metric{v, res.Metrics[name].Unit} }
	if len(hits) > 0 {
		set("server.cache_hit_s", median(hits))
		set("server.cache_hit_ratio", float64(len(hits))/float64(len(hits)+len(traced)+len(untraced)))
	}
	set("journal.bytes_per_campaign", float64(journalBytes)/n)
	set("server.cache_bytes_per_campaign", float64(cacheBytes)/n)
	if len(traced) > 0 && len(untraced) > 0 {
		set("bench.tracing_overhead_pct", 100*(median(traced)/median(untraced)-1))
	}
	set("bench.failed_ratio", float64(res.Failed)/n)
	set("bench.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
}
