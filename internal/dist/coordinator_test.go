package dist

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/isa"
)

func spModule(t testing.TB) *circuits.Module {
	t.Helper()
	m, err := circuits.Build(circuits.ModuleSP, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomSPStream(r *rand.Rand, lanes, n int) []fault.TimedPattern {
	stream := make([]fault.TimedPattern, n)
	for i := range stream {
		fn := circuits.SPFn(r.Intn(circuits.NumSPFns))
		p := circuits.EncodeSPPattern(fn, isa.Cond(r.Intn(isa.NumConds)),
			r.Uint32(), r.Uint32(), r.Uint32())
		stream[i] = fault.TimedPattern{
			CC:   uint64(i * 7),
			Lane: int16(i % lanes),
			Warp: 0,
			PC:   int32(i / 32),
			Pat:  p,
		}
	}
	return stream
}

func newSPCampaign(t testing.TB, m *circuits.Module, nFaults int, seed int64) *fault.Campaign {
	t.Helper()
	c := fault.NewCampaign(m)
	c.SampleFaults(nFaults, seed)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return c
}

// fastOptions keeps coordinator timing snappy under test.
func fastOptions() Options {
	return Options{
		MaxAttempts:       4,
		BaseBackoff:       5 * time.Millisecond,
		MaxBackoff:        50 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   2,
		// Explicit so the block-width-aware shard sizing (which only
		// shrinks defaulted counts) never folds these small test
		// campaigns into one shard — the tests exercise scheduling.
		Shards: 4,
		Seed:   1,
	}
}

// assertSameReport fails unless the distributed report is bit-identical
// to the serial one: same Detections (order included), same per-pattern
// counts, same stream metadata.
func assertSameReport(t *testing.T, got, want *fault.Report) {
	t.Helper()
	if got.NumPatterns != want.NumPatterns {
		t.Fatalf("NumPatterns = %d, want %d", got.NumPatterns, want.NumPatterns)
	}
	if !reflect.DeepEqual(got.Detections, want.Detections) {
		t.Fatalf("Detections differ: %d vs %d entries (got %v..., want %v...)",
			len(got.Detections), len(want.Detections),
			head(got.Detections), head(want.Detections))
	}
	if !reflect.DeepEqual(got.DetectedPerPattern, want.DetectedPerPattern) {
		t.Fatal("DetectedPerPattern differs")
	}
	if !reflect.DeepEqual(got.CCs, want.CCs) || !reflect.DeepEqual(got.Lanes, want.Lanes) ||
		!reflect.DeepEqual(got.PCs, want.PCs) || !reflect.DeepEqual(got.Warps, want.Warps) {
		t.Fatal("stream metadata differs")
	}
}

func head(d []fault.Detection) []fault.Detection {
	if len(d) > 3 {
		return d[:3]
	}
	return d
}

func TestNewRequiresTransports(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New with zero transports should fail")
	}
}

func TestCoordinatorMatchesSerial(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(31)), m.Lanes, 1024)

	serial := newSPCampaign(t, m, 1200, 7)
	wantRep := serial.Simulate(stream, fault.SimOptions{Workers: 1})

	co, err := New(fastOptions(), NewLocal("w1"), NewLocal("w2"), NewLocal("w3"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	distCamp := newSPCampaign(t, m, 1200, 7)
	res, err := co.Run(context.Background(), distCamp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}

	assertSameReport(t, res.Report, wantRep)
	if res.Degraded() || res.FailedShards != 0 {
		t.Fatalf("unexpected degradation: %+v", res)
	}
	if res.FCLower != res.FCUpper {
		t.Fatalf("healthy run must have point FC, got [%v, %v]", res.FCLower, res.FCUpper)
	}
	if got, want := res.FCLower, distCamp.Coverage(); got != want {
		t.Fatalf("FC = %v, want campaign coverage %v", got, want)
	}
	if !reflect.DeepEqual(distCamp.DetectedIDs(), serial.DetectedIDs()) {
		t.Fatal("campaign detected-ID sets differ from serial")
	}
	if res.DetectedThisRun != wantRep.DetectedThisRun() {
		t.Fatalf("DetectedThisRun = %d, want %d", res.DetectedThisRun, wantRep.DetectedThisRun())
	}
	if res.Stats.Dispatches < res.Stats.Shards {
		t.Fatalf("stats look wrong: %+v", res.Stats)
	}
}

func TestCoordinatorReverse(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(33)), m.Lanes, 512)

	serial := newSPCampaign(t, m, 800, 11)
	wantRep := serial.Simulate(stream, fault.SimOptions{Reverse: true, Workers: 1})

	co, err := New(fastOptions(), NewLocal("w1"), NewLocal("w2"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	camp := newSPCampaign(t, m, 800, 11)
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{Reverse: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, res.Report, wantRep)
	if !reflect.DeepEqual(camp.DetectedIDs(), serial.DetectedIDs()) {
		t.Fatal("reverse run: detected-ID sets differ")
	}
}

func TestCoordinatorDroppingAcrossRuns(t *testing.T) {
	m := spModule(t)
	r := rand.New(rand.NewSource(34))
	s1 := randomSPStream(r, m.Lanes, 512)
	s2 := randomSPStream(r, m.Lanes, 512)

	serial := newSPCampaign(t, m, 800, 13)
	serial.Simulate(s1, fault.SimOptions{Workers: 1})
	wantRep := serial.Simulate(s2, fault.SimOptions{Workers: 1})

	co, err := New(fastOptions(), NewLocal("w1"), NewLocal("w2"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	camp := newSPCampaign(t, m, 800, 13)
	if _, err := co.Run(context.Background(), camp, s1, fault.SimOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background(), camp, s2, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The second run must only see faults the first one did not drop.
	assertSameReport(t, res.Report, wantRep)
	if serial.Detected() != camp.Detected() {
		t.Fatalf("campaign state diverged: %d vs %d", camp.Detected(), serial.Detected())
	}
}

func TestCoordinatorNothingRemaining(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(35)), m.Lanes, 256)
	camp := newSPCampaign(t, m, 400, 17)
	camp.Simulate(stream, fault.SimOptions{Workers: 1})
	if err := camp.RestoreDetected(allIDs(camp)); err != nil {
		t.Fatal(err)
	}

	co, err := New(fastOptions(), NewLocal("w1"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 0 || res.DetectedThisRun != 0 || len(res.Report.Detections) != 0 {
		t.Fatalf("fully detected campaign should produce an empty run: %+v", res)
	}
	if res.FCLower != 100 || res.FCUpper != 100 {
		t.Fatalf("FC = [%v, %v], want [100, 100]", res.FCLower, res.FCUpper)
	}
}

func allIDs(c *fault.Campaign) []fault.ID {
	ids := make([]fault.ID, c.Total())
	for i := range ids {
		ids[i] = fault.ID(i)
	}
	return ids
}

func TestCoordinatorCanceled(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(37)), m.Lanes, 2048)
	camp := newSPCampaign(t, m, 1500, 23)

	co, err := New(fastOptions(), NewLocal("w1"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := co.Run(ctx, camp, stream, fault.SimOptions{}); err == nil {
		t.Fatal("canceled context should fail the run")
	}
	if camp.Detected() != 0 {
		t.Fatal("canceled run must not commit detections")
	}
}

func TestHTTPTransportRoundTrip(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(38)), m.Lanes, 512)

	serial := newSPCampaign(t, m, 800, 29)
	wantRep := serial.Simulate(stream, fault.SimOptions{Workers: 1})

	srv1 := httptest.NewServer(NewHandler("httpw1", nil))
	defer srv1.Close()
	srv2 := httptest.NewServer(NewHandler("httpw2", t.Logf))
	defer srv2.Close()

	opt := fastOptions()
	// Under the race detector an HTTP round trip to a busy worker can
	// take tens of ms; don't let the heartbeat mistake slow for dead.
	opt.HeartbeatInterval = 100 * time.Millisecond
	opt.HeartbeatMisses = 3
	co, err := New(opt, NewHTTP(srv1.URL), NewHTTP(srv2.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	camp := newSPCampaign(t, m, 800, 29)
	res, err := co.Run(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, res.Report, wantRep)
	if !reflect.DeepEqual(camp.DetectedIDs(), serial.DetectedIDs()) {
		t.Fatal("HTTP run: detected-ID sets differ from serial")
	}
}

func TestValidateRejectsBadReplies(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(39)), m.Lanes, 128)
	camp := newSPCampaign(t, m, 300, 31)
	req := &ShardRequest{
		Shard: 2, Attempt: 5,
		Module: m.Kind, Lanes: m.Lanes,
		Faults: camp.Faults(), Stream: stream,
	}
	w := NewLocal("w")
	good, err := w.Simulate(context.Background(), &ShardRequest{
		Shard: 2, Attempt: 5, Module: m.Kind, Lanes: m.Lanes,
		Faults: camp.Faults(), Stream: stream,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(good.Detections) == 0 {
		t.Fatal("test needs at least one detection")
	}
	if err := good.Validate(req); err != nil {
		t.Fatalf("genuine reply rejected: %v", err)
	}

	cases := map[string]func(r *ShardResult){
		"wrong shard echo":   func(r *ShardResult) { r.Shard++ },
		"wrong attempt echo": func(r *ShardResult) { r.Attempt-- },
		"fault out of range": func(r *ShardResult) { r.Detections[0].Fault = int32(len(req.Faults)) },
		"negative fault":     func(r *ShardResult) { r.Detections[0].Fault = -1 },
		"pattern out of range": func(r *ShardResult) {
			r.Detections[0].Pattern = int32(len(req.Stream))
		},
		"cc mismatch": func(r *ShardResult) { r.Detections[0].CC++ },
		"duplicate fault": func(r *ShardResult) {
			r.Detections = append(r.Detections, r.Detections[0])
		},
		"order violation": func(r *ShardResult) {
			r.Detections = append(r.Detections, r.Detections[len(r.Detections)-1])
		},
	}
	for name, mangle := range cases {
		bad := *good
		bad.Detections = append([]Detection(nil), good.Detections...)
		mangle(&bad)
		if err := bad.Validate(req); err == nil {
			t.Errorf("%s: corrupted reply passed validation", name)
		}
	}
	if err := (*ShardResult)(nil).Validate(req); err == nil {
		t.Error("nil reply passed validation")
	}
}

func TestSimulateCampaignHealthy(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(40)), m.Lanes, 512)

	serial := newSPCampaign(t, m, 800, 37)
	wantRep := serial.Simulate(stream, fault.SimOptions{Workers: 1})

	co, err := New(fastOptions(), NewLocal("w1"), NewLocal("w2"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	camp := newSPCampaign(t, m, 800, 37)
	rep, err := co.SimulateCampaign(context.Background(), camp, stream, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, rep, wantRep)
}

func TestHTTPNameNormalization(t *testing.T) {
	if got := NewHTTP("worker-a:9000").Name(); !strings.HasPrefix(got, "http://") {
		t.Fatalf("bare host:port not normalized: %q", got)
	}
	if got := NewHTTP("https://w/").Name(); got != "https://w" {
		t.Fatalf("scheme mishandled: %q", got)
	}
}
