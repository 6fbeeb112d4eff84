package run

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpustl/internal/core"
	"gpustl/internal/gpu"
	"gpustl/internal/journal"
)

// referenceRun computes the uninterrupted run every recovery test
// compares against.
func referenceRun(t *testing.T) (*Report, string) {
	t.Helper()
	lib, ms := testEnv(t)
	ref, err := Run(context.Background(), gpu.DefaultConfig(), ms, lib,
		core.Options{Workers: 4}, Options{FCTolerance: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ref, render(t, ref)
}

// assertSameResult checks a recovered run against the reference: the
// rendered report is byte-identical and the output STL agrees PTP for
// PTP (by content hash).
func assertSameResult(t *testing.T, ref, got *Report, want string) {
	t.Helper()
	if g := render(t, got); g != want {
		t.Errorf("recovered report differs:\n--- uninterrupted\n%s--- recovered\n%s", want, g)
	}
	if len(got.Compacted.PTPs) != len(ref.Compacted.PTPs) {
		t.Fatalf("STL sizes differ: %d vs %d", len(got.Compacted.PTPs), len(ref.Compacted.PTPs))
	}
	for i := range ref.Compacted.PTPs {
		a, err := HashPTP(ref.Compacted.PTPs[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := HashPTP(got.Compacted.PTPs[i])
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("PTP %d differs after recovery", i)
		}
	}
}

// TestCrashRecoveryEveryCutPoint is the durability acceptance test: one
// campaign directory survives a kill after each PTP in turn — first
// before any work is journaled, then after each journaled outcome — and
// the final resumed run produces a report and STL byte-identical to the
// uninterrupted reference.
func TestCrashRecoveryEveryCutPoint(t *testing.T) {
	cfg := gpu.DefaultConfig()
	copt := core.Options{Workers: 4}
	ref, want := referenceRun(t)

	dir := t.TempDir()
	// DIVG is excluded without entering any stage, so the kill points are
	// the two candidates; each kill lands while that PTP is mid-pipeline,
	// after every earlier PTP's record is fsync'd.
	for _, cut := range []string{"IMM", "MEM"} {
		lib, ms := testEnv(t)
		ctx, cancel := context.WithCancel(context.Background())
		_, err := Run(ctx, cfg, ms, lib, copt, Options{
			CheckpointDir: dir,
			FCTolerance:   5,
			StageHook: func(ptp string, stage core.Stage) error {
				if ptp == cut && stage == core.StagePartition {
					cancel()
				}
				return nil
			},
		})
		cancel()
		if err == nil {
			t.Fatalf("run killed at %s reported success", cut)
		}
	}

	lib, ms := testEnv(t)
	final, err := Run(context.Background(), cfg, ms, lib, copt,
		Options{CheckpointDir: dir, FCTolerance: 5})
	if err != nil {
		t.Fatal(err)
	}
	if final.Resumed != 1 {
		t.Fatalf("final run resumed %d outcomes, want 1 (IMM)", final.Resumed)
	}
	assertSameResult(t, ref, final, want)
}

// TestTornFinalRecordIsSalvaged is the torn-write acceptance test: a
// crash mid-append leaves a partial record; the resume drops it with an
// explicit salvage message, replays the good prefix, and recomputes the
// lost PTP to a byte-identical result.
func TestTornFinalRecordIsSalvaged(t *testing.T) {
	cfg := gpu.DefaultConfig()
	copt := core.Options{Workers: 4}
	ref, want := referenceRun(t)

	dir := t.TempDir()
	lib, ms := testEnv(t)
	if _, err := Run(context.Background(), cfg, ms, lib, copt,
		Options{CheckpointDir: dir, FCTolerance: 5}); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, WALFile)
	// Simulate a torn write: the last record lost its tail (no newline).
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	torn := append(bytes.Join(lines[:len(lines)-1], []byte("\n")), '\n')
	torn = append(torn, lines[len(lines)-1][:len(lines[len(lines)-1])/2]...)
	if err := os.WriteFile(walPath, torn, 0o666); err != nil {
		t.Fatal(err)
	}

	lib2, ms2 := testEnv(t)
	var logged []string
	got, err := Run(context.Background(), cfg, ms2, lib2, copt, Options{
		CheckpointDir: dir, FCTolerance: 5,
		Logf: func(format string, args ...any) {
			logged = append(logged, format)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	salvage := strings.Join(got.Notes, "\n")
	if !strings.Contains(salvage, "salvaged") || !strings.Contains(salvage, "dropped corrupt tail") {
		t.Fatalf("no explicit salvage message: %q", got.Notes)
	}
	if len(logged) == 0 {
		t.Error("salvage message was not logged via Logf")
	}
	assertSameResult(t, ref, got, want)
}

// TestFlippedCRCByteIsSalvaged: a single flipped byte inside a record's
// payload fails that record's CRC32C; recovery truncates at the last
// good record, reports the mismatch, and the resume recomputes the rest
// to a byte-identical result.
func TestFlippedCRCByteIsSalvaged(t *testing.T) {
	cfg := gpu.DefaultConfig()
	copt := core.Options{Workers: 4}
	ref, want := referenceRun(t)

	dir := t.TempDir()
	lib, ms := testEnv(t)
	if _, err := Run(context.Background(), cfg, ms, lib, copt,
		Options{CheckpointDir: dir, FCTolerance: 5}); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, WALFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the last record while keeping it valid
	// JSON: only the CRC can notice.
	i := bytes.LastIndex(data, []byte(`"name":"DIVG"`))
	if i < 0 {
		t.Fatalf("DIVG outcome not found in journal")
	}
	data[i+len(`"name":"`)] = 'X'
	if err := os.WriteFile(walPath, data, 0o666); err != nil {
		t.Fatal(err)
	}

	rp, err := journal.Scan(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Kind != journal.CorruptCRC || !strings.Contains(rp.Reason, "CRC32C mismatch") {
		t.Fatalf("corruption not classified as a CRC mismatch: kind=%s reason=%q", rp.Kind, rp.Reason)
	}

	lib2, ms2 := testEnv(t)
	got, err := Run(context.Background(), cfg, ms2, lib2, copt,
		Options{CheckpointDir: dir, FCTolerance: 5})
	if err != nil {
		t.Fatal(err)
	}
	if salvage := strings.Join(got.Notes, "\n"); !strings.Contains(salvage, "CRC32C mismatch") {
		t.Fatalf("salvage message does not name the CRC mismatch: %q", got.Notes)
	}
	// Everything before the flipped record resumed; only the lost tail
	// was recomputed.
	if got.Resumed != 2 {
		t.Fatalf("resumed %d outcomes, want 2", got.Resumed)
	}
	assertSameResult(t, ref, got, want)
}

// TestLegacyCheckpointRefused: a directory holding a pre-journal
// checkpoint.json and no journal is refused — by a resume, by
// LoadCheckpoint and by fsck — with the file named and the remedy
// spelled out, instead of being migrated or silently started over.
func TestLegacyCheckpointRefused(t *testing.T) {
	cfg := gpu.DefaultConfig()
	copt := core.Options{Workers: 4}
	lib, ms := testEnv(t)
	hash, err := ConfigHash(cfg, ms, lib, copt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	// A v1 checkpoint of this very configuration, with nothing done yet.
	legacy := fmt.Sprintf(`{"version":1,"configHash":%q,"entries":[]}`, hash)
	if err := os.WriteFile(path, []byte(legacy), 0o666); err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted a legacy checkpoint", what)
		}
		if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "delete it") {
			t.Fatalf("%s: error does not name the file and the remedy: %q", what, msg)
		}
	}

	_, err = Run(context.Background(), cfg, ms, lib, copt, Options{CheckpointDir: dir, FCTolerance: 5})
	refused("Run", err)
	_, err = LoadCheckpoint(dir)
	refused("LoadCheckpoint", err)

	rep, err := Fsck(dir, hash, lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != FsckSchema {
		t.Fatalf("fsck issues: %v", issueKinds(rep))
	}
	refused("fsck", errors.New(rep.Issues[0].Detail))

	// Deleting the file, as the message says, starts the campaign over.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), cfg, ms, lib, copt, Options{CheckpointDir: dir, FCTolerance: 5}); err != nil {
		t.Fatalf("fresh start after deleting the legacy checkpoint: %v", err)
	}
}

// TestV2JournalRefused: a campaign.wal whose meta record carries schema
// version 2 (written before the config hash dropped two deleted
// compactor options, so its hash no longer matches either) is refused by
// Run as a schema mismatch, not as a configuration change, and fsck
// reports it as a [schema] finding.
func TestV2JournalRefused(t *testing.T) {
	cfg := gpu.DefaultConfig()
	copt := core.Options{Workers: 4}
	lib, ms := testEnv(t)
	hash, err := ConfigHash(cfg, ms, lib, copt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j, _, err := journal.Open(context.Background(), filepath.Join(dir, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(recMeta, metaRecord{Version: 2, ConfigHash: strings.Repeat("0", len(hash)), PTPs: len(lib.PTPs)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = Run(context.Background(), cfg, ms, lib, copt, Options{CheckpointDir: dir, FCTolerance: 5})
	if err == nil {
		t.Fatal("Run resumed a v2 journal")
	}
	if msg := err.Error(); !strings.Contains(msg, "schema version 2") || strings.Contains(msg, "different configuration") {
		t.Fatalf("Run did not refuse the v2 journal as a schema mismatch: %q", msg)
	}
	rep, err := Fsck(dir, hash, lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != FsckSchema {
		t.Fatalf("fsck issues: %v", issueKinds(rep))
	}
}

// TestLoadCheckpointMissingIsNotError: a fresh directory starts fresh.
func TestLoadCheckpointMissingIsNotError(t *testing.T) {
	ck, err := LoadCheckpoint(t.TempDir())
	if err != nil || ck != nil {
		t.Fatalf("fresh dir: ck=%+v err=%v", ck, err)
	}
}
