package journal

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func openT(t *testing.T, path string) (*Journal, *Replay) {
	t.Helper()
	j, rp, err := Open(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	return j, rp
}

func TestAppendScanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.wal")
	j, rp := openT(t, path)
	if rp.Truncated || len(rp.Records) != 0 {
		t.Fatalf("fresh journal replay: %+v", rp)
	}
	for i := 1; i <= 10; i++ {
		seq, err := j.Append("item", payload{N: i, S: strings.Repeat("x", i)})
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq %d, want %d", seq, i)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rp2, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if rp2.Truncated || len(rp2.Records) != 10 {
		t.Fatalf("replay: truncated=%v records=%d", rp2.Truncated, len(rp2.Records))
	}
	for i, rec := range rp2.Records {
		if rec.Seq != uint64(i+1) || rec.Type != "item" {
			t.Fatalf("record %d: %+v", i, rec)
		}
	}
	if rp2.GoodSize != rp2.TotalSize {
		t.Errorf("GoodSize %d != TotalSize %d on a clean journal", rp2.GoodSize, rp2.TotalSize)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.wal")
	j, _ := openT(t, path)
	j.Append("a", payload{N: 1})
	j.Close()

	j2, rp := openT(t, path)
	if len(rp.Records) != 1 || j2.Seq() != 1 {
		t.Fatalf("reopen: records=%d seq=%d", len(rp.Records), j2.Seq())
	}
	if _, err := j2.Append("a", payload{N: 2}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	rp2, err := Scan(path)
	if err != nil || len(rp2.Records) != 2 {
		t.Fatalf("after reopen append: %v, %d records", err, len(rp2.Records))
	}
}

func TestTornTailIsTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.wal")
	j, _ := openT(t, path)
	j.Append("a", payload{N: 1})
	j.Append("a", payload{N: 2})
	j.Close()

	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a record, no newline.
	if err := os.WriteFile(path, append(append([]byte{}, good...), []byte(`{"seq":3,"ty`)...), 0o666); err != nil {
		t.Fatal(err)
	}

	j2, rp := openT(t, path)
	defer j2.Close()
	if !rp.Truncated || rp.Kind != CorruptTorn {
		t.Fatalf("torn tail not detected: %+v", rp)
	}
	if len(rp.Records) != 2 || rp.GoodSize != int64(len(good)) {
		t.Fatalf("salvage: %d records, GoodSize %d want %d", len(rp.Records), rp.GoodSize, len(good))
	}
	// Open must have truncated the tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, good) {
		t.Errorf("tail not truncated: %d bytes, want %d", len(data), len(good))
	}
	// And appending after recovery continues the good sequence.
	if seq, err := j2.Append("a", payload{N: 3}); err != nil || seq != 3 {
		t.Fatalf("append after recovery: seq=%d err=%v", seq, err)
	}
}

func TestFlippedCRCByteStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.wal")
	j, _ := openT(t, path)
	j.Append("a", payload{N: 1, S: "first"})
	j.Append("a", payload{N: 2, S: "second"})
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the second record's body.
	idx := bytes.LastIndex(data, []byte("second"))
	data[idx] ^= 0x20
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	rp, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rp.Truncated || rp.Kind != CorruptCRC {
		t.Fatalf("flipped byte not classified as CRC corruption: %+v", rp)
	}
	if len(rp.Records) != 1 || rp.Records[0].Seq != 1 {
		t.Fatalf("salvage kept %d records, want the 1 before the corruption", len(rp.Records))
	}
	if !strings.Contains(rp.Reason, "CRC32C mismatch") {
		t.Errorf("reason does not explain the corruption: %q", rp.Reason)
	}
}

func TestSequenceBreakStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.wal")
	j, _ := openT(t, path)
	j.Append("a", payload{N: 1})
	j.Close()

	// Append a record with a skipped sequence number (valid CRC).
	line, err := EncodeRecord(5, "a", payload{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o666)
	f.Write(line)
	f.Close()

	rp, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rp.Truncated || rp.Kind != CorruptSeq || len(rp.Records) != 1 {
		t.Fatalf("sequence break not detected: %+v", rp)
	}
}

func TestScanMissingFile(t *testing.T) {
	rp, err := Scan(filepath.Join(t.TempDir(), "nope.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if rp.Truncated || len(rp.Records) != 0 || rp.TotalSize != 0 {
		t.Fatalf("missing file replay: %+v", rp)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		``,
		`not json`,
		`{"seq":1,"type":"","crc":"00000000","body":{}}`,
		`{"seq":1,"type":"a","crc":"zzzz","body":{}}`,
		`{"seq":1,"type":"a","crc":"00000000"}`,
		`{"seq":1,"type":"a","crc":"00000000","body":{}} trailing`,
	} {
		if _, err := DecodeRecord([]byte(line)); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.json")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2-longer" {
		t.Fatalf("read back %q, %v", data, err)
	}
	// No temp droppings.
	entries, _ := os.ReadDir(filepath.Dir(path))
	if len(entries) != 1 {
		t.Errorf("%d directory entries after atomic writes, want 1", len(entries))
	}
}

func TestSumRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stl.json")
	data := []byte(`{"ptps":[]}`)
	if err := WriteFileAtomic(path, data); err != nil {
		t.Fatal(err)
	}

	// No sidecar yet.
	if err := VerifyFileSum(path); err == nil || !strings.Contains(err.Error(), "no checksum sidecar") {
		t.Fatalf("missing sidecar: %v", err)
	}

	if err := WriteSum(path, data); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFileSum(path); err != nil {
		t.Fatalf("clean artifact flagged: %v", err)
	}

	// Corrupt the artifact: CRC mismatch, explicit diagnostic.
	bad := append([]byte{}, data...)
	bad[2] ^= 0xff
	os.WriteFile(path, bad, 0o666)
	if err := VerifyFileSum(path); err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("corruption not detected: %v", err)
	}

	// Truncate the artifact: size mismatch diagnostic.
	os.WriteFile(path, data[:4], 0o666)
	if err := VerifyFileSum(path); err == nil || !strings.Contains(err.Error(), "size") {
		t.Fatalf("truncation not detected: %v", err)
	}
}
