package gpustl

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gpustl/internal/core"
	"gpustl/internal/dist"
	"gpustl/internal/obs"
	"gpustl/internal/ptpgen"
	"gpustl/internal/server"
	"gpustl/internal/stl"
)

// TestMetricsLint is the scrape-path hygiene gate: it runs a real
// campaign through an in-process stlserver wired like the daemon
// (metrics, tracer, build info) over a fleet of two loopback stlworker
// handlers with backpressure limits, then feeds both the server's and
// the workers' /metrics through the Prometheus text-format linter. A
// malformed series name or incoherent histogram introduced anywhere in
// the server, dist or worker code fails here, not in production
// Prometheus. Every family either scrape emits must also have a row in
// docs/OBSERVABILITY.md's metric catalog.
//
// The same run doubles as the end-to-end trace check: the submitted
// X-Gpustl-Trace context must reappear in the server's trace file, with
// a queue-wait child and the tenant on the execute span.
func TestMetricsLint(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, "stlserver")
	wreg := obs.NewRegistry()
	obs.RegisterBuildInfo(wreg, "stlworker")
	tracePath := filepath.Join(dir, "trace.jsonl")
	tracer := obs.NewTracer(tracePath)

	var transports []dist.Transport
	for _, name := range []string{"w1", "w2"} {
		ws := httptest.NewServer(dist.NewHandlerOptions(name, dist.WorkerOptions{
			MaxConcurrent: 2, MaxQueue: 8, MaxInflightBytes: 64 << 20, Metrics: wreg,
		}))
		defer ws.Close()
		transports = append(transports, dist.NewHTTP(ws.URL))
	}

	srv := server.New(server.Options{
		StateDir:       filepath.Join(dir, "state"),
		Holder:         "lint-test",
		MaxActive:      2,
		HeartbeatEvery: 10 * time.Millisecond,
		LeaseTTL:       200 * time.Millisecond,
		DrainGrace:     5 * time.Second,
		SimWorkers:     2,
		Fleet: func() (core.FaultSimulator, error) {
			return dist.New(dist.Options{Metrics: reg, Tracer: tracer}, transports...)
		},
		Metrics: reg,
		Tracer:  tracer,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	defer func() {
		cancel()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Error("server did not stop")
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); !srv.Ready(); {
		if time.Now().After(deadline) {
			t.Fatal("server not ready after 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	h := srv.Handler()

	// Submit a small campaign with a propagated trace context, the way
	// a traced CLI client would.
	lib := &stl.STL{PTPs: []*stl.PTP{ptpgen.IMM(6, 11), ptpgen.MEM(6, 12)}}
	var libBuf bytes.Buffer
	if err := stl.WriteSTL(&libBuf, lib); err != nil {
		t.Fatal(err)
	}
	fc := 5.0
	body, err := json.Marshal(map[string]any{
		"id": "lint-c1",
		"spec": &server.Spec{
			STL: libBuf.Bytes(), Faults: 300, FCTol: &fc, Tenant: "acme",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := obs.SpanContext{Trace: obs.NewTraceID(), Span: 0xabcdef12, Flags: 1}
	req := httptest.NewRequest("POST", "/api/v1/campaigns", bytes.NewReader(body))
	req.Header.Set(obs.TraceHeader, sc.Header())
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusAccepted && rr.Code != http.StatusOK {
		t.Fatalf("submit status %d: %s", rr.Code, rr.Body.String())
	}
	for deadline := time.Now().Add(60 * time.Second); ; {
		v, ok := srv.Get("lint-c1")
		if ok && v.State.Terminal() {
			if v.State != server.StateDone {
				t.Fatalf("campaign ended %s: %s", v.State, v.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign not terminal after 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Scrape both processes through the mux the daemons serve, lint the
	// text, and check the families this run exercised are present:
	// their absence means the wiring regressed silently.
	catalog := catalogFamilies(t, "docs/OBSERVABILITY.md")
	for _, sp := range []struct {
		who  string
		reg  *obs.Registry
		want []string
	}{
		{"server", reg, []string{
			`gpustl_build_info{`,
			"gpustl_server_campaign_seconds_bucket",
			"gpustl_run_ptps_total",
			`gpustl_dist_shard_seconds_bucket{worker=`,
			"gpustl_dist_runs_total",
			"gpustl_fault_blocks_total",
			"gpustl_fault_prescreen_skip_ratio",
			// Published by the coordinator's merge, as an in-process
			// run publishes them.
			"gpustl_fault_runs_total",
			"gpustl_fault_sim_seconds_bucket",
			// Published by core from the shared campaign after each
			// stage-3 commit.
			"gpustl_fault_coverage_pct",
			"gpustl_fault_remaining",
			// The tenant's requeue budget and the coordinator's
			// shard-retry budget write apart.
			`gpustl_overload_retry_tokens_earned_total{budget="tenant"}`,
			`gpustl_overload_retry_tokens_earned_total{budget="dist"}`,
		}},
		{"worker", wreg, []string{
			`gpustl_build_info{`,
			"gpustl_worker_shards_total",
			"gpustl_worker_shard_seconds_bucket",
			`gpustl_overload_admitted_total{pool="worker_slots"}`,
		}},
	} {
		rr := httptest.NewRecorder()
		obs.NewDebugMux(sp.reg, "").ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		scrape := rr.Body.String()
		probs, err := obs.LintPrometheusText(strings.NewReader(scrape))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range probs {
			t.Errorf("%s lint: %s", sp.who, p)
		}
		for _, want := range sp.want {
			if !strings.Contains(scrape, want) {
				t.Errorf("%s /metrics missing %s", sp.who, want)
			}
		}
		for _, fam := range scrapeFamilies(scrape) {
			if !catalog[fam] {
				t.Errorf("%s /metrics family %s has no row in the docs/OBSERVABILITY.md catalog", sp.who, fam)
			}
		}
	}

	// The propagated trace context made it into the server's trace file:
	// the execute span joined the client's trace remotely, carries the
	// tenant, and a queue-wait child was recorded.
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadTraceFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var joined, queueWait, tenant bool
	for _, ev := range events {
		if ev.Trace != sc.Trace.String() {
			continue
		}
		joined = true
		switch {
		case ev.Name == "queue-wait":
			queueWait = true
		case strings.HasPrefix(ev.Name, "execute:"):
			tenant = ev.Attrs["tenant"] == "acme"
		}
	}
	if !joined {
		t.Errorf("no server span joined the submitted trace %s", sc.Trace)
	}
	if !queueWait {
		t.Error("no queue-wait span recorded for the traced campaign")
	}
	if !tenant {
		t.Error(`execute span does not carry tenant="acme"`)
	}
}

// scrapeFamilies returns the metric family names a Prometheus text
// scrape declares in its # TYPE lines.
func scrapeFamilies(scrape string) []string {
	var fams []string
	for _, line := range strings.Split(scrape, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			fams = append(fams, f[2])
		}
	}
	return fams
}

// catalogRow matches a catalog table row's leading metric name, up to
// its label list or closing backtick.
var catalogRow = regexp.MustCompile("^\\| `(gpustl_[a-z0-9_]+)")

// catalogFamilies reads the family names from the rows of the
// "## Metric catalog" section of the observability doc.
func catalogFamilies(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fams := map[string]bool{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			in = line == "## Metric catalog"
			continue
		}
		if m := catalogRow.FindStringSubmatch(line); in && m != nil {
			fams[m[1]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(fams) == 0 {
		t.Fatalf("no catalog rows found in %s", path)
	}
	return fams
}
