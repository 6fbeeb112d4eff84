package journal

import (
	"context"
	"errors"
	"path/filepath"
	"syscall"
	"testing"

	"gpustl/internal/failpoint"
)

// openArmed opens the journal at path under a ctx arming one failpoint:
// the journal's appends evaluate against the set of the ctx it was
// opened under.
func openArmed(t *testing.T, path, name string, cfg failpoint.Config) *Journal {
	t.Helper()
	set, err := failpoint.NewSet(map[string]failpoint.Config{name: cfg})
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := Open(failpoint.WithSet(context.Background(), set), path)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestAppendShortWriteIsSurfacedAndHealed exercises the
// journal.append.write failpoint: a torn write must be reported as
// ErrShortWrite (not discovered later as a CRC torn-tail), the partial
// bytes must be truncated away, and a retry of the same record must
// succeed and leave a clean journal.
func TestAppendShortWriteIsSurfacedAndHealed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.wal")
	j := openArmed(t, path, "journal.append.write", failpoint.Config{
		Kind: failpoint.KindShortWrite, After: 1, Times: 1,
	})
	defer j.Close()

	if _, err := j.Append("item", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := j.Append("item", payload{N: 2})
	if !errors.Is(err, ErrShortWrite) {
		t.Fatalf("torn append error = %v, want ErrShortWrite", err)
	}

	// The tail healed in place: the same record can be appended again
	// and the on-disk file is a clean two-record journal.
	seq, err := j.Append("item", payload{N: 2})
	if err != nil || seq != 2 {
		t.Fatalf("retry after torn append: seq=%d err=%v", seq, err)
	}
	rp, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Truncated || len(rp.Records) != 2 {
		t.Fatalf("post-heal replay: truncated=%v kind=%s records=%d",
			rp.Truncated, rp.Kind, len(rp.Records))
	}
}

// TestAppendDiskFullIsDistinct exercises ENOSPC classification via the
// write failpoint: callers must be able to errors.Is on ErrDiskFull to
// distinguish "environment out of space" from corruption.
func TestAppendDiskFullIsDistinct(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.wal")
	j := openArmed(t, path, "journal.append.write", failpoint.Config{
		Kind: failpoint.KindShortWrite, Bytes: 5, Err: syscall.ENOSPC, Times: 1,
	})
	defer j.Close()

	_, err := j.Append("item", payload{N: 1})
	if !errors.Is(err, ErrDiskFull) {
		t.Fatalf("ENOSPC append error = %v, want ErrDiskFull", err)
	}
	if errors.Is(err, ErrShortWrite) {
		t.Fatalf("ENOSPC misclassified as plain short write: %v", err)
	}

	// Healed: the journal is empty and appendable once space "returns".
	seq, err := j.Append("item", payload{N: 1})
	if err != nil || seq != 1 {
		t.Fatalf("append after ENOSPC cleared: seq=%d err=%v", seq, err)
	}
}

// TestAppendSyncFailureHealsTail exercises journal.append.sync: a
// failed fsync drops the unacknowledged record (its durability is
// unknown) so the journal stays a clean prefix, and an ENOSPC-flavored
// sync failure classifies as ErrDiskFull.
func TestAppendSyncFailureHealsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.wal")
	j := openArmed(t, path, "journal.append.sync", failpoint.Config{
		Kind: failpoint.KindError, Err: syscall.ENOSPC, After: 1, Times: 1,
	})
	defer j.Close()

	if _, err := j.Append("item", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := j.Append("item", payload{N: 2})
	if !errors.Is(err, ErrDiskFull) {
		t.Fatalf("sync ENOSPC error = %v, want ErrDiskFull", err)
	}
	if j.Seq() != 1 {
		t.Fatalf("seq advanced to %d across a failed sync", j.Seq())
	}

	seq, err := j.Append("item", payload{N: 2})
	if err != nil || seq != 2 {
		t.Fatalf("retry after failed sync: seq=%d err=%v", seq, err)
	}
	rp, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Truncated || len(rp.Records) != 2 {
		t.Fatalf("post-sync-failure replay: truncated=%v records=%d", rp.Truncated, len(rp.Records))
	}
}

// TestAppendCorruptionLandsSilently exercises the bit-flip action: the
// append "succeeds", and the rot is only found by the next Scan as a
// CRC mismatch (or torn framing if the flip hit the JSON structure) —
// the failure mode recovery truncates.
func TestAppendCorruptionLandsSilently(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.wal")
	j := openArmed(t, path, "journal.append.write", failpoint.Config{
		Kind: failpoint.KindCorrupt, Seed: 42, After: 1, Times: 1,
	})

	if _, err := j.Append("item", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append("item", payload{N: 2}); err != nil {
		t.Fatalf("corrupting append must succeed silently, got %v", err)
	}
	j.Close()

	rp, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rp.Truncated || len(rp.Records) != 1 {
		t.Fatalf("corrupted record not caught: truncated=%v records=%d", rp.Truncated, len(rp.Records))
	}
	if rp.Kind != CorruptCRC && rp.Kind != CorruptTorn {
		t.Fatalf("corruption kind = %s", rp.Kind)
	}

	// Reopen truncates the rotten record and appends continue cleanly.
	j2, rp2 := openT(t, path)
	defer j2.Close()
	if len(rp2.Records) != 1 || j2.Seq() != 1 {
		t.Fatalf("reopen after rot: records=%d seq=%d", len(rp2.Records), j2.Seq())
	}
	if seq, err := j2.Append("item", payload{N: 2}); err != nil || seq != 2 {
		t.Fatalf("append after rot recovery: seq=%d err=%v", seq, err)
	}
}
