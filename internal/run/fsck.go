package run

import (
	"errors"
	"fmt"
	"io"

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

// firstRefusal returns the first finding a resume refuses a journal
// for, or nil. Only the tail findings journal.Open truncates leave a
// prefix to resume, and artifact findings are not the journal's.
func firstRefusal(issues []FsckIssue) *FsckIssue {
	for i, is := range issues {
		switch is.Kind {
		case FsckTornTail, FsckCRC, FsckSeq, FsckArtifact:
		default:
			return &issues[i]
		}
	}
	return nil
}

// FsckReport summarizes a campaign-state integrity check.
type FsckReport struct {
	JournalPath string
	// Records is how many intact journal records were read.
	Records int
	// Salvageable is how many PTP outcomes a resume would recover: 0
	// when a resume refuses the journal.
	Salvageable int
	Issues      []FsckIssue
}

// Clean reports whether no integrity issue was found.
func (r *FsckReport) Clean() bool { return len(r.Issues) == 0 }

func (r *FsckReport) add(kind FsckKind, format string, args ...any) {
	r.Issues = append(r.Issues, FsckIssue{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// Render writes the check's findings and the repair summary: what a
// resume would salvage, or that it refuses the journal.
func (r *FsckReport) Render(w io.Writer) {
	fmt.Fprintf(w, "fsck: %s: %d record(s), %d outcome(s) salvageable\n", r.JournalPath, r.Records, r.Salvageable)
	for _, is := range r.Issues {
		fmt.Fprintf(w, "  [%s] %s\n", is.Kind, is.Detail)
	}
	switch {
	case r.Clean():
		fmt.Fprintf(w, "fsck: clean\n")
	case firstRefusal(r.Issues) != nil:
		fmt.Fprintf(w, "fsck: %d issue(s); a resume refuses this journal — delete the checkpoint directory to start over\n",
			len(r.Issues))
	default:
		fmt.Fprintf(w, "fsck: %d issue(s); a resume salvages the first %d outcome(s) and redoes the rest\n",
			len(r.Issues), r.Salvageable)
	}
}

// Fsck verifies the durable campaign state in dir and any output
// artifacts, without modifying anything. It reads the journal with the
// same code a resume does, so it reports exactly what a resume refuses
// or salvages past:
//
//   - the journal's record envelopes (CRC32C, sequence chain, torn tail),
//   - the record schema (meta first, known record types, outcomes in
//     order, marks agreeing with the replayed totals, compacted
//     programs that decode),
//   - the campaign's config hash against wantHash (skipped when empty),
//   - each outcome's name and input-PTP hash against lib, and that lib
//     has a PTP for it (skipped when lib is nil),
//   - each outcome's dropped, original and shipped fault ids against
//     its module's fault list in ms (skipped when ms or lib is nil),
//   - each artifact path's checksum sidecar,
//   - a legacy checkpoint.json in a directory with no journal records,
//     which no binary reads anymore.
//
// Every finding carries a distinct FsckKind; the caller maps a non-clean
// report to a non-zero exit.
func Fsck(dir, wantHash string, ms *core.ModuleSet, lib *stl.STL, artifacts []string) (*FsckReport, error) {
	want := expectation{hash: wantHash, ms: ms}
	if lib != nil {
		digests, err := digestsOf(lib)
		if err != nil {
			return nil, fmt.Errorf("fsck: %w", err)
		}
		want.lib, want.digests = lib, digests
	}
	rd, err := readJournal(dir, want)
	if err != nil {
		return nil, fmt.Errorf("fsck: %w", err)
	}
	if rd.ck != nil && firstRefusal(rd.Issues) == nil {
		rd.Salvageable = len(rd.ck.Entries)
	}
	fsckArtifacts(artifacts, &rd.FsckReport)
	return &rd.FsckReport, nil
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
