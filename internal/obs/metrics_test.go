package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("gpustl_test_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("gpustl_test_total") != c {
		t.Fatal("get-or-create returned a different counter handle")
	}

	g := r.Gauge("gpustl_test_ratio")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Fatalf("gauge = %g, want 2", got)
	}

	h := r.Histogram("gpustl_test_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("histogram count = %d, want 5", h.Count())
	}
	if h.Sum() != 56.05 {
		t.Fatalf("histogram sum = %g, want 56.05", h.Sum())
	}
	snap := r.Snapshot()
	hs := snap.Histograms["gpustl_test_seconds"]
	if hs.Buckets["0.1"] != 1 || hs.Buckets["1"] != 3 || hs.Buckets["10"] != 4 || hs.Buckets["+Inf"] != 5 {
		t.Fatalf("cumulative buckets wrong: %+v", hs.Buckets)
	}
}

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(3)
	r.Gauge("y").Set(1)
	r.Gauge("y").Add(1)
	r.Histogram("z", nil).Observe(1)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	r.PublishExpvar("gpustl_nil_test")
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	var tr *Tracer
	sp := tr.Start(nil, KindStage, "noop")
	sp.Annotate("k", "v")
	sp.End()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(`gpustl_dist_dispatches_total`).Add(7)
	r.Gauge(`gpustl_dist_worker_up{worker="w1"}`).Set(1)
	r.Gauge(`gpustl_dist_worker_up{worker="w2"}`).Set(0)
	h := r.Histogram(`gpustl_dist_shard_seconds{worker="w1"}`, []float64{0.5, 2})
	h.Observe(0.1)
	h.Observe(1)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE gpustl_dist_dispatches_total counter",
		"gpustl_dist_dispatches_total 7",
		"# TYPE gpustl_dist_worker_up gauge",
		`gpustl_dist_worker_up{worker="w1"} 1`,
		`gpustl_dist_worker_up{worker="w2"} 0`,
		"# TYPE gpustl_dist_shard_seconds histogram",
		`gpustl_dist_shard_seconds_bucket{worker="w1",le="0.5"} 1`,
		`gpustl_dist_shard_seconds_bucket{worker="w1",le="2"} 2`,
		`gpustl_dist_shard_seconds_bucket{worker="w1",le="+Inf"} 2`,
		`gpustl_dist_shard_seconds_sum{worker="w1"} 1.1`,
		`gpustl_dist_shard_seconds_count{worker="w1"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// The TYPE line for a labeled family must appear exactly once.
	if n := strings.Count(out, "# TYPE gpustl_dist_worker_up gauge"); n != 1 {
		t.Errorf("worker_up TYPE line appears %d times", n)
	}
}

// TestRegistryConcurrent is the race-detector test CI runs: handles
// are created and hammered from many goroutines at once.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("gpustl_conc_total")
			g := r.Gauge("gpustl_conc_gauge")
			h := r.Histogram("gpustl_conc_seconds", DefLatencyBuckets())
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) * 1e-4)
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("gpustl_conc_total").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("gpustl_conc_gauge").Value(); got != 8000 {
		t.Fatalf("gauge = %g, want 8000", got)
	}
	if got := r.Histogram("gpustl_conc_seconds", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("gpustl_mux_total").Add(3)
	mux := NewDebugMux(r, "gpustl_mux_test")
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := res.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return res.StatusCode, b.String()
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "gpustl_mux_total 3") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	code, body := get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	if _, ok := vars["gpustl_mux_test"]; !ok {
		t.Fatalf("/debug/vars missing published registry: %s", body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}

// TestMetricsEndpointContentNegotiation pins /metrics to the classic
// text format: a Prometheus that prefers OpenMetrics (it sends that
// Accept header first) still gets text/plain, which it falls back to.
func TestMetricsEndpointContentNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("lat_seconds", []float64{0.1, 1}).Observe(0.05)
	mux := NewDebugMux(reg, "")
	for _, accept := range []string{"", "application/openmetrics-text; version=1.0.0,text/plain;q=0.5"} {
		req := httptest.NewRequest("GET", "/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, req)
		if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("Accept %q: content type = %q", accept, ct)
		}
		if body := rr.Body.String(); !strings.Contains(body, `lat_seconds_bucket{le="0.1"} 1`) || strings.Contains(body, "# EOF") {
			t.Errorf("Accept %q: not a classic text scrape:\n%s", accept, body)
		}
	}
}
