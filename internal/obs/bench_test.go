package obs

import (
	"testing"
)

// The hot-path benchmarks backing BENCH_obs.json: a counter increment
// and a span start/stop must stay cheap enough that instrumenting the
// fault-sim inner loop (which batches updates per shard anyway) costs
// well under 1% of the simulation itself.

func BenchmarkObsCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsCounterIncParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", DefLatencyBuckets())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

func BenchmarkObsSpanStartStop(b *testing.B) {
	tr := NewTracer("")
	root := tr.Start(nil, KindCampaign, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start(root, KindStage, "stage")
		sp.End()
	}
}

func BenchmarkObsNilCounterInc(b *testing.B) {
	var r *Registry
	c := r.Counter("bench_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// The disarmed fleet-tracing path: every shard dispatch calls these
// even when no tracer is configured, so they must be near-free.
func BenchmarkObsNilTracerSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start(nil, KindShard, "shard")
		_ = sp.Context()
		sp.Annotate("side", "client")
		sp.End()
	}
}

func BenchmarkObsTraceHeaderRoundTrip(b *testing.B) {
	sc := SpanContext{Trace: NewTraceID(), Span: 0xabcdef12, Flags: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := sc.Header()
		if _, err := ParseTraceHeader(h); err != nil {
			b.Fatal(err)
		}
	}
}
