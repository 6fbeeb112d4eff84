package run

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpustl/internal/core"
	"gpustl/internal/gpu"
	"gpustl/internal/journal"
	"gpustl/internal/ptpgen"
	"gpustl/internal/stl"
)

// fsckCampaign runs a full checkpointed campaign and returns its
// directory, library, module set and config hash.
func fsckCampaign(t *testing.T) (dir string, lib *stl.STL, ms *core.ModuleSet, hash string) {
	t.Helper()
	dir = t.TempDir()
	lib, ms = testEnv(t)
	cfg := gpu.DefaultConfig()
	copt := core.Options{Workers: 4}
	if _, err := Run(context.Background(), cfg, ms, lib, copt,
		Options{CheckpointDir: dir, FCTolerance: 5}); err != nil {
		t.Fatal(err)
	}
	h, err := ConfigHash(cfg, ms, lib, copt, 5)
	if err != nil {
		t.Fatal(err)
	}
	return dir, lib, ms, h
}

func issueKinds(rep *FsckReport) []FsckKind {
	kinds := make([]FsckKind, len(rep.Issues))
	for i, is := range rep.Issues {
		kinds[i] = is.Kind
	}
	return kinds
}

func TestFsckCleanCampaign(t *testing.T) {
	dir, lib, ms, hash := fsckCampaign(t)
	rep, err := Fsck(dir, hash, ms, lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean campaign flagged: %+v", rep.Issues)
	}
	if rep.Salvageable != len(lib.PTPs) {
		t.Errorf("Salvageable = %d, want %d", rep.Salvageable, len(lib.PTPs))
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "fsck: clean") {
		t.Errorf("render: %q", buf.String())
	}
}

func TestFsckDetectsCRCMismatch(t *testing.T) {
	dir, lib, ms, hash := fsckCampaign(t)
	walPath := filepath.Join(dir, WALFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.LastIndex(data, []byte(`"name":"DIVG"`))
	data[i+len(`"name":"`)] = 'X'
	if err := os.WriteFile(walPath, data, 0o666); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(dir, hash, ms, lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("flipped byte not detected")
	}
	if rep.Issues[0].Kind != FsckCRC || !strings.Contains(rep.Issues[0].Detail, "CRC32C mismatch") {
		t.Fatalf("issue: %+v", rep.Issues[0])
	}
	if rep.Salvageable != 2 {
		t.Errorf("Salvageable = %d, want 2", rep.Salvageable)
	}
}

func TestFsckDetectsTornTail(t *testing.T) {
	dir, lib, ms, hash := fsckCampaign(t)
	walPath := filepath.Join(dir, WALFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-10], 0o666); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dir, hash, ms, lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != FsckTornTail {
		t.Fatalf("issues: %v", issueKinds(rep))
	}
}

func TestFsckDetectsConfigHashMismatch(t *testing.T) {
	dir, lib, ms, _ := fsckCampaign(t)
	rep, err := Fsck(dir, strings.Repeat("0", 64), ms, lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != FsckConfigHash {
		t.Fatalf("issues: %v", issueKinds(rep))
	}
	if !strings.Contains(rep.Issues[0].Detail, "incompatible") {
		t.Errorf("detail: %q", rep.Issues[0].Detail)
	}
}

func TestFsckDetectsPTPHashDrift(t *testing.T) {
	dir, _, ms, hash := fsckCampaign(t)
	// The operator edited the library after the campaign: same names,
	// different programs.
	drifted := &stl.STL{PTPs: []*stl.PTP{
		ptpgen.IMM(21, 61), // one extra pattern: hash drifts
		ptpgen.MEM(20, 62),
		ptpgen.DIVG(3, 2, 63),
	}}
	rep, err := Fsck(dir, hash, ms, drifted, nil)
	if err != nil {
		t.Fatal(err)
	}
	var drift int
	for _, is := range rep.Issues {
		if is.Kind == FsckPTPDrift {
			drift++
			if !strings.Contains(is.Detail, "library changed") {
				t.Errorf("detail: %q", is.Detail)
			}
		}
	}
	if drift != 1 {
		t.Fatalf("PTP drift issues = %d, want 1: %v", drift, issueKinds(rep))
	}
}

// TestFsckDetectsFaultIDOutsideList: a journaled dropped, original or
// shipped fault id past the module's fault list is one [fault-id-range]
// finding, and a resume refuses the entry instead of replaying it.
func TestFsckDetectsFaultIDOutsideList(t *testing.T) {
	src, lib, _, hash := fsckCampaign(t)
	ck, err := LoadCheckpoint(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []string{"dropped", "original", "shipped"} {
		t.Run(set, func(t *testing.T) {
			entries := append([]Entry(nil), ck.Entries...)
			e := entries[1]
			switch set {
			case "dropped":
				e.DroppedFaults = append(append([]int32(nil), e.DroppedFaults...), 1500)
			case "original":
				e.OriginalFaults = append(append([]int32(nil), e.OriginalFaults...), 1500)
			default:
				e.ShippedFaults = append(append([]int32(nil), e.ShippedFaults...), 1500)
			}
			entries[1] = e
			dir := t.TempDir()
			j, _, err := journal.Open(context.Background(), filepath.Join(dir, WALFile))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Append(recMeta, metaRecord{Version: CheckpointVersion, ConfigHash: hash, PTPs: len(lib.PTPs)}); err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if _, err := j.Append(recOutcome, e); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			lib, ms := testEnv(t)
			rep, err := Fsck(dir, hash, ms, lib, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Issues) != 1 || rep.Issues[0].Kind != FsckFaultID ||
				!strings.Contains(rep.Issues[0].Detail, set+" fault id 1500") {
				t.Fatalf("issues: %+v", rep.Issues)
			}
			_, err = Run(context.Background(), gpu.DefaultConfig(), ms, lib, core.Options{Workers: 4},
				Options{CheckpointDir: dir, FCTolerance: 5})
			if err == nil || !strings.Contains(err.Error(), "outside") {
				t.Fatalf("resume replayed an out-of-range %s id: %v", set, err)
			}
		})
	}
}

func TestFsckDetectsArtifactCorruption(t *testing.T) {
	dir, lib, ms, hash := fsckCampaign(t)
	art := filepath.Join(t.TempDir(), "out.stl")
	if err := journal.WriteFileAtomic(art, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := journal.WriteSum(art, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(filepath.Dir(art), "nosum.stl")
	if err := os.WriteFile(missing, []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}

	// Intact artifact: clean.
	rep, err := Fsck(dir, hash, ms, lib, []string{art})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("intact artifact flagged: %+v", rep.Issues)
	}

	// Corrupted artifact and a sidecar-less one: one issue each, with
	// distinct diagnostics.
	if err := os.WriteFile(art, []byte("PAYLOAD"), 0o666); err != nil {
		t.Fatal(err)
	}
	rep, err = Fsck(dir, hash, ms, lib, []string{art, missing})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 2 ||
		rep.Issues[0].Kind != FsckArtifact || rep.Issues[1].Kind != FsckArtifact {
		t.Fatalf("issues: %+v", rep.Issues)
	}
	if !strings.Contains(rep.Issues[0].Detail, "corrupted") {
		t.Errorf("corruption detail: %q", rep.Issues[0].Detail)
	}
	if !strings.Contains(rep.Issues[1].Detail, "no checksum sidecar") {
		t.Errorf("missing-sidecar detail: %q", rep.Issues[1].Detail)
	}
}

func TestFsckDistinctDiagnosticsRender(t *testing.T) {
	// Each kind renders with its own tag so operators (and scripts) can
	// tell the failure classes apart.
	rep := &FsckReport{JournalPath: "x/campaign.wal"}
	rep.add(FsckCRC, "a")
	rep.add(FsckConfigHash, "b")
	rep.add(FsckPTPDrift, "c")
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, tag := range []string{"[crc-mismatch]", "[config-hash-mismatch]", "[ptp-hash-drift]"} {
		if !strings.Contains(out, tag) {
			t.Errorf("render lacks %s:\n%s", tag, out)
		}
	}
}

// TestFsckAgreesWithResume holds fsck's verdict to what a resume does,
// one journal defect per row. Every journal is written through
// journal.Append, so its CRCs hold unless the row damages bytes. Where
// fsck says a resume refuses the journal, Run must refuse it and leave
// it as it was; otherwise Run must resume exactly the outcomes fsck
// counts as salvageable and render like an uninterrupted run.
func TestFsckAgreesWithResume(t *testing.T) {
	src, _, _, hash := fsckCampaign(t)
	ck, err := LoadCheckpoint(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Entries) != 3 || ck.Entries[0].Status != StatusCompacted {
		t.Fatalf("clean campaign entries: %+v", ck.Entries)
	}
	_, want := referenceRun(t)

	type record struct {
		typ  string
		body any
	}
	meta := record{recMeta, metaRecord{Version: CheckpointVersion, ConfigHash: hash, PTPs: 3}}
	// outcomes journals the clean campaign's entries, the i-th edited by
	// edit when it is non-nil.
	outcomes := func(edit func(i int, e *Entry)) []record {
		var recs []record
		for i, e := range ck.Entries {
			if edit != nil {
				edit(i, &e)
			}
			recs = append(recs, record{recOutcome, e})
		}
		return recs
	}
	withID := func(set string) func(int, *Entry) {
		return func(i int, e *Entry) {
			if i != 1 {
				return
			}
			switch set {
			case "dropped":
				e.DroppedFaults = append(append([]int32(nil), e.DroppedFaults...), 1500)
			case "original":
				e.OriginalFaults = append(append([]int32(nil), e.OriginalFaults...), 1500)
			default:
				e.ShippedFaults = append(append([]int32(nil), e.ShippedFaults...), 1500)
			}
		}
	}
	lastLine := func(data []byte) int {
		return bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	}
	rows := []struct {
		name    string
		records []record
		damage  func(data []byte) []byte // applied to the written journal
		legacy  bool                     // no journal, a v1 checkpoint.json
	}{
		{name: "torn-tail", records: append([]record{meta}, outcomes(nil)...),
			damage: func(data []byte) []byte {
				i := lastLine(data)
				return data[:i+(len(data)-i)/2]
			}},
		{name: "crc-flip", records: append([]record{meta}, outcomes(nil)...),
			damage: func(data []byte) []byte {
				i := bytes.LastIndex(data, []byte(`"name":"DIVG"`))
				data[i+len(`"name":"`)] = 'X'
				return data
			}},
		{name: "config-hash", records: append([]record{{recMeta,
			metaRecord{Version: CheckpointVersion, ConfigHash: strings.Repeat("0", len(hash)), PTPs: 3}}},
			outcomes(nil)...)},
		{name: "ptp-drift", records: append([]record{meta}, outcomes(func(i int, e *Entry) {
			if i == 1 {
				e.OrigHash = strings.Repeat("0", len(e.OrigHash))
			}
		})...)},
		{name: "dropped-id", records: append([]record{meta}, outcomes(withID("dropped"))...)},
		{name: "original-id", records: append([]record{meta}, outcomes(withID("original"))...)},
		{name: "shipped-id", records: append([]record{meta}, outcomes(withID("shipped"))...)},
		{name: "undecodable-compacted", records: append([]record{meta}, outcomes(func(i int, e *Entry) {
			if i == 0 {
				e.Compacted = []byte(`{}`)
			}
		})...)},
		{name: "mark-mismatch", records: append(append([]record{meta}, outcomes(nil)...),
			record{recMark, markRecord{Outcomes: 5}})},
		{name: "unknown-type", records: append(append([]record{meta}, outcomes(nil)...),
			record{"bogus", map[string]int{"n": 1}})},
		{name: "outcome-order", records: func() []record {
			o := outcomes(nil)
			return []record{meta, o[0], o[2], o[1]}
		}()},
		{name: "extra-outcome", records: append(append([]record{meta}, outcomes(nil)...),
			outcomes(func(i int, e *Entry) { e.Index = 3 })[2])},
		{name: "legacy", legacy: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			walPath := filepath.Join(dir, WALFile)
			if row.legacy {
				legacy := fmt.Sprintf(`{"version":1,"configHash":%q,"entries":[]}`, hash)
				if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), []byte(legacy), 0o666); err != nil {
					t.Fatal(err)
				}
			} else {
				j, _, err := journal.Open(context.Background(), walPath)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range row.records {
					if _, err := j.Append(r.typ, r.body); err != nil {
						t.Fatal(err)
					}
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				if row.damage != nil {
					data, err := os.ReadFile(walPath)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(walPath, row.damage(data), 0o666); err != nil {
						t.Fatal(err)
					}
				}
			}
			before, _ := os.ReadFile(walPath)

			lib, ms := testEnv(t)
			rep, err := Fsck(dir, hash, ms, lib, nil)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			rep.Render(&buf)
			if rep.Clean() {
				t.Fatalf("fsck calls the journal clean:\n%s", buf.String())
			}
			refuses := strings.Contains(buf.String(), "a resume refuses this journal")

			got, err := Run(context.Background(), gpu.DefaultConfig(), ms, lib, core.Options{Workers: 4},
				Options{CheckpointDir: dir, FCTolerance: 5})
			if refuses {
				if err == nil {
					t.Fatalf("fsck says a resume refuses the journal, but Run resumed %d outcome(s):\n%s",
						got.Resumed, buf.String())
				}
				if after, _ := os.ReadFile(walPath); !bytes.Equal(after, before) {
					t.Errorf("a refused resume changed the journal")
				}
				return
			}
			if err != nil {
				t.Fatalf("fsck says a resume salvages %d outcome(s), but Run refused: %v\n%s",
					rep.Salvageable, err, buf.String())
			}
			if got.Resumed != rep.Salvageable {
				t.Errorf("Run resumed %d outcome(s), fsck counts %d salvageable", got.Resumed, rep.Salvageable)
			}
			if g := render(t, got); g != want {
				t.Errorf("resumed report differs:\n--- uninterrupted\n%s--- resumed\n%s", want, g)
			}
		})
	}
}
