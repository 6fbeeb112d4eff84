package run

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"gpustl/internal/core"
	"gpustl/internal/journal"
	"gpustl/internal/stl"
)

// FsckKind classifies one integrity finding. Each kind has a distinct
// diagnostic so operators can tell apart a torn write (expected after a
// crash, self-healing on resume) from silent corruption or operator
// error (wrong flags, edited library).
type FsckKind string

const (
	// FsckTornTail: the journal ends in a partial record — the normal
	// signature of a crash mid-append. Resume drops the tail.
	FsckTornTail FsckKind = "torn-tail"
	// FsckCRC: a record's CRC32C does not match its payload — the
	// record was altered or the disk corrupted it.
	FsckCRC FsckKind = "crc-mismatch"
	// FsckSeq: a record's sequence number breaks the monotonic chain —
	// records were reordered, duplicated, or spliced.
	FsckSeq FsckKind = "sequence-break"
	// FsckSchema: a record passes the CRC but its payload does not
	// decode as the schema its type promises — or there are no records
	// and the directory holds a legacy checkpoint.json instead.
	FsckSchema FsckKind = "schema"
	// FsckConfigHash: the journal was written under a different
	// configuration than the one being checked — resuming would mix
	// incompatible campaign states.
	FsckConfigHash FsckKind = "config-hash-mismatch"
	// FsckPTPDrift: a journaled outcome's input-PTP hash does not match
	// the library's PTP at the same index — the library was edited
	// after the campaign started.
	FsckPTPDrift FsckKind = "ptp-hash-drift"
	// FsckMark: a compaction mark disagrees with the outcomes replayed
	// before it — some outcome record was altered without tripping its
	// own CRC window.
	FsckMark FsckKind = "mark-mismatch"
	// FsckArtifact: an output artifact fails its checksum sidecar, or
	// has no sidecar to check.
	FsckArtifact FsckKind = "artifact-checksum"
	// FsckFaultID: a journaled outcome's dropped, original or shipped
	// fault ids reach outside its module's fault list — a resume would
	// refuse the entry.
	FsckFaultID FsckKind = "fault-id-range"
)

// FsckIssue is one integrity finding.
type FsckIssue struct {
	Kind   FsckKind
	Detail string
}

// FsckReport summarizes a campaign-state integrity check.
type FsckReport struct {
	JournalPath string
	// Records is how many intact journal records were read.
	Records int
	// Salvageable is how many PTP outcomes a resume would recover.
	Salvageable int
	Issues      []FsckIssue
}

// Clean reports whether no integrity issue was found.
func (r *FsckReport) Clean() bool { return len(r.Issues) == 0 }

func (r *FsckReport) add(kind FsckKind, format string, args ...any) {
	r.Issues = append(r.Issues, FsckIssue{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// Render writes the check's findings and the repair summary: what a
// resume would salvage and what must be deleted or re-run.
func (r *FsckReport) Render(w io.Writer) {
	fmt.Fprintf(w, "fsck: %s: %d record(s), %d outcome(s) salvageable\n", r.JournalPath, r.Records, r.Salvageable)
	for _, is := range r.Issues {
		fmt.Fprintf(w, "  [%s] %s\n", is.Kind, is.Detail)
	}
	switch {
	case r.Clean():
		fmt.Fprintf(w, "fsck: clean\n")
	case r.Salvageable > 0:
		fmt.Fprintf(w, "fsck: %d issue(s); a resume salvages the first %d outcome(s) and redoes the rest\n",
			len(r.Issues), r.Salvageable)
	default:
		fmt.Fprintf(w, "fsck: %d issue(s); nothing salvageable — delete the checkpoint directory to start over\n",
			len(r.Issues))
	}
}

// Fsck verifies the durable campaign state in dir and any output
// artifacts, without modifying anything:
//
//   - the journal's record envelopes (CRC32C, sequence chain, torn tail),
//   - the record schema (meta first, outcomes in order, marks agreeing
//     with the replayed totals),
//   - the campaign's config hash against wantHash (skipped when empty),
//   - each outcome's input-PTP hash against lib (skipped when nil),
//   - each outcome's dropped, original and shipped fault ids against
//     its module's fault list in ms (skipped when ms or lib is nil),
//   - each artifact path's checksum sidecar,
//   - a legacy checkpoint.json in a directory with no journal records,
//     which no binary reads anymore.
//
// Every finding carries a distinct FsckKind; the caller maps a non-clean
// report to a non-zero exit.
func Fsck(dir, wantHash string, ms *core.ModuleSet, lib *stl.STL, artifacts []string) (*FsckReport, error) {
	walPath := filepath.Join(dir, WALFile)
	rep := &FsckReport{JournalPath: walPath}

	rp, err := journal.Scan(walPath)
	if err != nil {
		return nil, fmt.Errorf("fsck: reading journal: %w", err)
	}
	if len(rp.Records) == 0 {
		if err := refuseLegacy(dir); err != nil {
			rep.add(FsckSchema, "%v", err)
		}
	}
	rep.Records = len(rp.Records)
	if rp.Truncated {
		kind := FsckTornTail
		switch rp.Kind {
		case journal.CorruptCRC:
			kind = FsckCRC
		case journal.CorruptSeq:
			kind = FsckSeq
		}
		rep.add(kind, "journal tail dropped after %d good byte(s) of %d: %s",
			rp.GoodSize, rp.TotalSize, rp.Reason)
	}

	ck := fsckRecords(rp, rep)
	if ck != nil {
		rep.Salvageable = len(ck.Entries)
		fsckCheckpoint(ck, wantHash, ms, lib, rep)
	}
	fsckArtifacts(artifacts, rep)
	return rep, nil
}

// fsckRecords validates the journal's record schema, collecting issues
// instead of stopping at the first, and returns the salvageable
// checkpoint (nil when even the meta record is unusable).
func fsckRecords(rp *journal.Replay, rep *FsckReport) *Checkpoint {
	if len(rp.Records) == 0 {
		return nil
	}
	first := rp.Records[0]
	if first.Type != recMeta {
		rep.add(FsckSchema, "first record is %q, want %q", first.Type, recMeta)
		return nil
	}
	var meta metaRecord
	if err := json.Unmarshal(first.Body, &meta); err != nil {
		rep.add(FsckSchema, "meta record does not decode: %v", err)
		return nil
	}
	if meta.Version != CheckpointVersion {
		rep.add(FsckSchema, "journal schema version %d, this binary reads %d", meta.Version, CheckpointVersion)
		return nil
	}
	ck := &Checkpoint{Version: meta.Version, ConfigHash: meta.ConfigHash}
	var totals markRecord
	for i, rec := range rp.Records[1:] {
		switch rec.Type {
		case recOutcome:
			var e Entry
			if err := json.Unmarshal(rec.Body, &e); err != nil {
				rep.add(FsckSchema, "record %d (seq %d) does not decode as an outcome: %v", i+2, rec.Seq, err)
				return ck
			}
			if e.Index != len(ck.Entries) {
				rep.add(FsckSchema, "record %d holds outcome %d, want %d", i+2, e.Index, len(ck.Entries))
				return ck
			}
			ck.Entries = append(ck.Entries, e)
			totals.Outcomes++
			totals.OrigSize += e.OrigSize
			totals.CompSize += e.CompSize
		case recMark:
			var m markRecord
			if err := json.Unmarshal(rec.Body, &m); err != nil {
				rep.add(FsckSchema, "record %d does not decode as a mark: %v", i+2, err)
				return ck
			}
			if m != totals {
				rep.add(FsckMark, "mark at record %d says %d outcomes (orig %d, comp %d) but the replay holds %d (orig %d, comp %d)",
					i+2, m.Outcomes, m.OrigSize, m.CompSize, totals.Outcomes, totals.OrigSize, totals.CompSize)
			}
		default:
			rep.add(FsckSchema, "record %d has unknown type %q", i+2, rec.Type)
		}
	}
	return ck
}

// fsckCheckpoint cross-checks a salvaged checkpoint against this run's
// configuration, fault lists and library.
func fsckCheckpoint(ck *Checkpoint, wantHash string, ms *core.ModuleSet, lib *stl.STL, rep *FsckReport) {
	if wantHash != "" && ck.ConfigHash != wantHash {
		rep.add(FsckConfigHash, "campaign was written under config %.12s, these flags hash to %.12s — resuming would mix incompatible states",
			ck.ConfigHash, wantHash)
	}
	if lib == nil {
		return
	}
	for i, e := range ck.Entries {
		if i >= len(lib.PTPs) {
			rep.add(FsckPTPDrift, "outcome %d (%s) has no PTP at that index in the library (%d PTPs)",
				i, e.Name, len(lib.PTPs))
			continue
		}
		p := lib.PTPs[i]
		ph, err := stl.Digest(p)
		if err != nil {
			rep.add(FsckPTPDrift, "hashing library PTP %s: %v", p.Name, err)
			continue
		}
		if e.Name != p.Name || e.OrigHash != ph {
			rep.add(FsckPTPDrift, "outcome %d was computed from PTP %s (hash %.12s) but the library holds %s (hash %.12s) — the library changed after the campaign started",
				i, e.Name, e.OrigHash, p.Name, ph)
		}
		if ms == nil {
			continue
		}
		n := int32(len(ms.Faults[p.Target]))
		for _, set := range []struct {
			name string
			ids  []int32
		}{{"dropped", e.DroppedFaults}, {"original", e.OriginalFaults}, {"shipped", e.ShippedFaults}} {
			for _, id := range set.ids {
				if id < 0 || id >= n {
					rep.add(FsckFaultID, "outcome %d (%s) has %s fault id %d outside the %v fault list (%d faults)",
						i, e.Name, set.name, id, p.Target, n)
					break
				}
			}
		}
	}
}

// fsckArtifacts verifies each artifact path against its checksum
// sidecar.
func fsckArtifacts(paths []string, rep *FsckReport) {
	for _, path := range paths {
		switch err := journal.VerifyFileSum(path); {
		case err == nil:
		case errors.Is(err, journal.ErrNoSum):
			rep.add(FsckArtifact, "%s has no checksum sidecar (%s); rewrite it with this binary to get one",
				path, journal.SumPath(path))
		default:
			rep.add(FsckArtifact, "%v", err)
		}
	}
}
