package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/netlist"
	"gpustl/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenShardRequest is a small request touching every frame field with
// distinguishable bytes, so a reordered or resized field shows in the
// golden diff.
func goldenShardRequest() *ShardRequest {
	return &ShardRequest{
		Shard: 3, Attempt: 2, Module: circuits.ModuleSP, Lanes: 8,
		Faults: []fault.Fault{
			{Lane: 1, Site: netlist.FaultSite{Gate: 258, Pin: -1, SA1: true}},
			{Lane: 7, Site: netlist.FaultSite{Gate: 0x01020304, Pin: 2}},
		},
		Stream: []fault.TimedPattern{
			{CC: 0x1122334455667788, Lane: 5, Warp: 1, PC: 42,
				Pat: circuits.Pattern{W: [2]uint64{0xdeadbeef, 0x0123456789abcdef}}},
			{CC: 9, Lane: 0, Warp: 3, PC: 7, Pat: circuits.Pattern{W: [2]uint64{1, 1 << 63}}},
		},
	}
}

// TestShardFrameGolden pins the frame bytes of a fixed request, so a
// field reorder cannot silently split a mixed coordinator/worker fleet.
// The golden file holds one hex line per record (header, faults,
// patterns). Regenerate with `go test ./internal/dist -run Golden
// -update` only together with a new frame magic.
func TestShardFrameGolden(t *testing.T) {
	got, err := encodeShardFrame(goldenShardRequest())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "shard_frame.golden")
	if *update {
		lines := []string{hex.EncodeToString(got[:frameHeaderLen])}
		rest := got[frameHeaderLen:]
		for range goldenShardRequest().Faults {
			lines = append(lines, hex.EncodeToString(rest[:frameFaultLen]))
			rest = rest[frameFaultLen:]
		}
		for ; len(rest) > 0; rest = rest[framePatternLen:] {
			lines = append(lines, hex.EncodeToString(rest[:framePatternLen]))
		}
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(lines, "\n")+"\n"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	text, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
	if err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frame bytes drifted from %s:\ngot  %x\nwant %x", golden, got, want)
	}
	back, err := decodeShardFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, goldenShardRequest()) {
		t.Fatalf("golden frame decodes to %+v", back)
	}
}

// TestShardFrameEncodeRejectsUnrepresentable: values the fixed-width
// fields cannot carry fail loudly instead of wrapping.
func TestShardFrameEncodeRejectsUnrepresentable(t *testing.T) {
	for _, req := range []*ShardRequest{
		{Shard: -1}, {Attempt: -1}, {Lanes: -3}, {Lanes: 1 << 16},
	} {
		if _, err := encodeShardFrame(req); err == nil {
			t.Errorf("encoded %+v", req)
		}
	}
}

// TestShardFrameDecodeRejects covers the decoder's framing checks; the
// module and lane checks are covered end to end by
// TestWorkerRejectsHostileModule.
func TestShardFrameDecodeRejects(t *testing.T) {
	good, err := encodeShardFrame(goldenShardRequest())
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	le := binary.LittleEndian
	cases := map[string][]byte{
		"empty":        nil,
		"short header": good[:frameHeaderLen-1],
		"bad magic":    mut(func(b []byte) []byte { b[3] = '2'; return b }),
		"truncated":    good[:len(good)-1],
		"trailing":     append(append([]byte(nil), good...), 0),
		"fault count":  mut(func(b []byte) []byte { le.PutUint32(b[16:], 1<<31); return b }),
		"stuck-at two": mut(func(b []byte) []byte { b[frameHeaderLen+7] = 2; return b }),
	}
	for name, b := range cases {
		if req, err := decodeShardFrame(b); err == nil {
			t.Errorf("%s: decoded %+v", name, req)
		}
	}
}

// FuzzShardFrame: arbitrary bytes never panic the decoder; whatever it
// accepts re-encodes to the same bytes with slices exactly as long as
// the body implies; and a request built from the fuzz input survives
// encode then decode field for field.
func FuzzShardFrame(f *testing.F) {
	seed, err := encodeShardFrame(goldenShardRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:frameHeaderLen])
	f.Add([]byte(frameMagic))
	f.Add([]byte(`{"shard":1,"faults":[],"stream":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := decodeShardFrame(data); err == nil {
			if cap(req.Faults) != len(req.Faults) || cap(req.Stream) != len(req.Stream) ||
				frameLen(uint64(len(req.Faults)), uint64(len(req.Stream))) != uint64(len(data)) {
				t.Fatalf("decoded %d faults, %d patterns from %d bytes", len(req.Faults), len(req.Stream), len(data))
			}
			again, err := encodeShardFrame(req)
			if err != nil {
				t.Fatalf("re-encoding an accepted frame: %v", err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("accepted frame re-encodes differently:\n in %x\nout %x", data, again)
			}
		}

		req := requestFromBytes(data)
		b, err := encodeShardFrame(req)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeShardFrame(b)
		if err != nil {
			t.Fatalf("decoding an encoded request: %v", err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("round trip differs:\n got %+v\nwant %+v", back, req)
		}
	})
}

// requestFromBytes deterministically maps fuzz input to a valid request:
// a 6-byte prefix picks the header fields and the fault count, the next
// bytes fill that many fault records (as many as fit), and the rest fill
// pattern records.
func requestFromBytes(data []byte) *ShardRequest {
	var h [6]byte
	n := copy(h[:], data)
	data = data[n:]
	req := &ShardRequest{
		Shard:   int(h[0])<<8 | int(h[1]),
		Attempt: int(h[2]),
		Module:  circuits.ModuleKind(int(h[3]) % circuits.NumModuleKinds),
		Lanes:   1 + int(h[4])%gpu.WarpSize,
	}
	nf := min(int(h[5]), len(data)/frameFaultLen)
	le := binary.LittleEndian
	for i := 0; i < nf; i++ {
		p := data[i*frameFaultLen:]
		req.Faults = append(req.Faults, fault.Fault{Lane: int16(le.Uint16(p)), Site: netlist.FaultSite{
			Gate: int32(le.Uint32(p[2:])), Pin: int8(p[6]), SA1: p[7]&1 == 1}})
	}
	for p := data[nf*frameFaultLen:]; len(p) >= framePatternLen; p = p[framePatternLen:] {
		req.Stream = append(req.Stream, fault.TimedPattern{
			CC: le.Uint64(p), Lane: int16(le.Uint16(p[8:])), Warp: int16(le.Uint16(p[10:])),
			PC:  int32(le.Uint32(p[12:])),
			Pat: circuits.Pattern{W: [2]uint64{le.Uint64(p[16:]), le.Uint64(p[24:])}},
		})
	}
	return req
}

// postFrame posts a raw body to a worker's /simulate endpoint.
func postFrame(t *testing.T, url string, body io.Reader) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+simulatePath, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", frameContentType)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	return res.StatusCode
}

// TestWorkerRejectsHostileModule is the regression test for hostile lane
// counts: a frame naming an unknown module or a lane count outside
// [1, gpu.WarpSize] is answered 400 and counted before any module is
// built, and the in-process executor refuses a negative lane count
// instead of panicking inside the engine.
func TestWorkerRejectsHostileModule(t *testing.T) {
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewHandlerOptions("hostile", WorkerOptions{Metrics: reg}))
	defer srv.Close()

	good, err := encodeShardFrame(goldenShardRequest())
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	for _, hdr := range []struct{ kind, lanes uint16 }{
		{uint16(circuits.ModuleSP), 0xfffd}, // Lanes: -3 as the u16 it travels as
		{uint16(circuits.ModuleSP), 0},
		{uint16(circuits.ModuleSP), gpu.WarpSize + 1},
		{uint16(circuits.NumModuleKinds), 8},
	} {
		b := append([]byte(nil), good...)
		le.PutUint16(b[12:], hdr.kind)
		le.PutUint16(b[14:], hdr.lanes)
		if code := postFrame(t, srv.URL, bytes.NewReader(b)); code != http.StatusBadRequest {
			t.Errorf("module %d lanes %d: HTTP %d, want 400", hdr.kind, hdr.lanes, code)
		}
	}
	if got := reg.Snapshot().Counters["gpustl_worker_bad_requests_total"]; got != 4 {
		t.Fatalf("bad-request counter = %d, want 4", got)
	}

	l := NewLocal("w")
	for _, lanes := range []int{-3, gpu.WarpSize + 1} {
		if _, err := l.Simulate(context.Background(), &ShardRequest{Module: circuits.ModuleSP, Lanes: lanes}); err == nil {
			t.Errorf("Local.Simulate accepted Lanes %d", lanes)
		}
	}
	if len(l.mods) != 0 {
		t.Fatalf("refused requests cached %d modules", len(l.mods))
	}
}

// TestWorkerRejectsFaultsOutsideModule is the regression test for shards
// whose faults do not fit the module: a gate outside the netlist, a pin
// past the gate's arity, or a negative fault lane (a wire u16 of 32768
// or more). Local.Simulate returns an error and the HTTP worker answers
// 400 and counts a bad request, where both used to panic inside the
// engine. A negative pattern lane is left out like any lane the module
// lacks, and a valid shard to the same handler still succeeds.
func TestWorkerRejectsFaultsOutsideModule(t *testing.T) {
	valid := func() *ShardRequest {
		req := &ShardRequest{Shard: 1, Attempt: 1, Module: circuits.ModuleDU, Lanes: 1}
		for g := int32(100); g < 108; g++ {
			req.Faults = append(req.Faults, fault.Fault{Site: netlist.FaultSite{Gate: g, Pin: -1, SA1: g%2 == 1}})
		}
		for i := uint64(0); i < 70; i++ {
			req.Stream = append(req.Stream, fault.TimedPattern{CC: i,
				Pat: circuits.Pattern{W: [2]uint64{i * 0x9e3779b97f4a7c15, i * 0xbf58476d1ce4e5b9}}})
		}
		return req
	}
	bad := map[string]func(*ShardRequest){
		"gate 1<<30":       func(r *ShardRequest) { r.Faults[3].Site.Gate = 1 << 30 },
		"gate -3":          func(r *ShardRequest) { r.Faults[3].Site.Gate = -3 },
		"gate 700 pin 5":   func(r *ShardRequest) { r.Faults[3].Site = netlist.FaultSite{Gate: 700, Pin: 5} },
		"pin -2":           func(r *ShardRequest) { r.Faults[3].Site.Pin = -2 },
		"input pin":        func(r *ShardRequest) { r.Faults[3].Site = netlist.FaultSite{Gate: 0, Pin: 0} },
		"fault lane -1":    func(r *ShardRequest) { r.Faults[3].Lane = -1 },
		"fault lane 1<<15": func(r *ShardRequest) { r.Faults[3].Lane = -1 << 15 },
	}

	l := NewLocal("w")
	want, err := l.Simulate(context.Background(), valid())
	if err != nil {
		t.Fatalf("valid shard: %v", err)
	}
	if len(want.Detections) == 0 {
		t.Fatal("valid shard detected nothing; the cases below prove little")
	}
	for name, mutate := range bad {
		req := valid()
		mutate(req)
		if res, err := l.Simulate(context.Background(), req); err == nil {
			t.Errorf("%s: Local.Simulate accepted the shard: %+v", name, res)
		}
	}
	// Patterns in a negative lane are left out, not simulated.
	req := valid()
	for i := range req.Stream {
		req.Stream[i].Lane = -1
	}
	if res, err := l.Simulate(context.Background(), req); err != nil || len(res.Detections) != 0 {
		t.Fatalf("negative pattern lane: %d detections, err %v; want none, no error", len(res.Detections), err)
	}

	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewHandlerOptions("w", WorkerOptions{Metrics: reg}))
	defer srv.Close()
	post := func(req *ShardRequest) int {
		frame, err := encodeShardFrame(req)
		if err != nil {
			t.Fatal(err)
		}
		return postFrame(t, srv.URL, bytes.NewReader(frame))
	}
	for name, mutate := range bad {
		req := valid()
		mutate(req)
		if code := post(req); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}
	if code := post(req); code != http.StatusOK {
		t.Errorf("negative pattern lane: HTTP %d, want 200", code)
	}
	if code := post(valid()); code != http.StatusOK {
		t.Fatalf("valid shard after malformed ones: HTTP %d, want 200", code)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["gpustl_worker_bad_requests_total"]; got != uint64(len(bad)) {
		t.Errorf("bad-request counter = %d, want %d", got, len(bad))
	}
	if got := snap.Counters["gpustl_worker_shards_total"]; got != 2 {
		t.Errorf("shards served = %d, want 2", got)
	}
}

// TestWorkerRequiresContentLength: a chunked /simulate body has no
// length to account for, so it is refused with 411 before admission.
func TestWorkerRequiresContentLength(t *testing.T) {
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewHandlerOptions("cl", WorkerOptions{Metrics: reg, MaxInflightBytes: 1 << 20}))
	defer srv.Close()
	req := goldenShardRequest()
	req.Faults = req.Faults[:1] // the second golden fault's gate is past SP's netlist
	frame, err := encodeShardFrame(req)
	if err != nil {
		t.Fatal(err)
	}
	// An io.MultiReader hides the length, so the client sends chunked.
	if code := postFrame(t, srv.URL, io.MultiReader(bytes.NewReader(frame))); code != http.StatusLengthRequired {
		t.Fatalf("chunked body: HTTP %d, want 411", code)
	}
	if code := postFrame(t, srv.URL, bytes.NewReader(frame)); code != http.StatusOK {
		t.Fatalf("framed body: HTTP %d, want 200", code)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["gpustl_worker_bad_requests_total"]; got != 1 {
		t.Fatalf("bad-request counter = %d, want 1", got)
	}
	if got := snap.Counters["gpustl_worker_shards_total"]; got != 1 {
		t.Fatalf("shards served = %d, want 1", got)
	}
}
