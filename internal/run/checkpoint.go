package run

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"gpustl/internal/circuits"
	"gpustl/internal/core"
	"gpustl/internal/gpu"
	"gpustl/internal/journal"
	"gpustl/internal/stl"
)

// CheckpointVersion is bumped whenever the persisted schema or the
// ConfigHash input changes incompatibly; a version mismatch refuses to
// resume. Version 3 stopped hashing two deleted compactor options, so a
// v2 journal is refused as a schema mismatch rather than reported as a
// misleading configuration change.
const CheckpointVersion = 3

// WALFile is the append-only write-ahead journal inside the checkpoint
// directory. One fsync'd record per PTP outcome; recovery replays it
// and truncates at the first corrupt or torn record.
const WALFile = "campaign.wal"

// legacyCheckpointFile is the pre-journal (v1) whole-state checkpoint.
// It is no longer read: a directory holding one and no journal is
// refused (refuseLegacy) rather than resumed or silently restarted.
const legacyCheckpointFile = "checkpoint.json"

// markEvery is how many outcome records sit between two consecutive
// compaction marks. A mark carries the running totals, so fsck can
// cross-check long journals incrementally and a replay mismatch is
// localized to a 16-record window.
const markEvery = 16

// Journal record types.
const (
	recMeta    = "meta"    // first record: version, config hash, library size
	recOutcome = "outcome" // one per finished PTP, an Entry
	recMark    = "mark"    // periodic compaction mark: running totals
)

// metaRecord is the journal's first record.
type metaRecord struct {
	Version    int    `json:"version"`
	ConfigHash string `json:"configHash"`
	PTPs       int    `json:"ptps"`
}

// markRecord is a periodic compaction mark: totals over every outcome
// record so far.
type markRecord struct {
	Outcomes int `json:"outcomes"`
	OrigSize int `json:"origSize"`
	CompSize int `json:"compSize"`
}

// Entry records the outcome of one PTP, in library order. It carries
// everything a resumed run needs to reconstruct both the report row and
// the campaign state without re-simulating.
type Entry struct {
	Index  int    `json:"index"`
	Name   string `json:"name"`
	Status Status `json:"status"`
	// Stage is the pipeline stage reached when a failure occurred
	// (empty for compacted/excluded entries).
	Stage string `json:"stage,omitempty"`
	Error string `json:"error,omitempty"`
	// Attempts counts pipeline attempts (>1 only when the quarantine
	// policy retried a crashing or timed-out PTP).
	Attempts int `json:"attempts,omitempty"`

	OrigSize        int     `json:"origSize"`
	CompSize        int     `json:"compSize"`
	OrigDuration    uint64  `json:"origDuration,omitempty"`
	CompDuration    uint64  `json:"compDuration,omitempty"`
	OrigFC          float64 `json:"origFC,omitempty"`
	CompFC          float64 `json:"compFC,omitempty"`
	TotalSBs        int     `json:"totalSBs,omitempty"`
	RemovedSBs      int     `json:"removedSBs,omitempty"`
	Essential       int     `json:"essential,omitempty"`
	Unessential     int     `json:"unessential,omitempty"`
	DetectedThisRun int     `json:"detectedThisRun,omitempty"`

	// OrigHash fingerprints the input PTP (sha256 of its serialized
	// form) so resuming against an edited library fails loudly.
	OrigHash string `json:"origHash"`
	// Compacted is the WritePTP serialization of the compacted program;
	// present only when Status is StatusCompacted (reverted, excluded
	// and quarantined PTPs keep the original, which the library holds).
	Compacted json.RawMessage `json:"compacted,omitempty"`
	// DroppedFaults is the delta of the target module's campaign
	// detected-id set contributed by this PTP (ascending). Replaying the
	// deltas in order reconstructs the cross-PTP fault-dropping state.
	DroppedFaults []int32 `json:"droppedFaults,omitempty"`
}

// Checkpoint is the in-memory state of a (possibly partial) STL
// compaction run, as reconstructed from the journal.
type Checkpoint struct {
	Version    int     `json:"version"`
	ConfigHash string  `json:"configHash"`
	Entries    []Entry `json:"entries"`
}

// LoadCheckpoint reads the campaign state persisted in dir's
// write-ahead journal. Missing state is not an error: it returns
// (nil, nil) so a first run starts fresh — unless dir holds a legacy
// checkpoint.json, which is refused. A journal with a corrupt tail
// loads the records before the corruption (exactly what a resume would
// use).
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	walPath := filepath.Join(dir, WALFile)
	rp, err := journal.Scan(walPath)
	if err != nil {
		return nil, fmt.Errorf("run: reading journal: %w", err)
	}
	if len(rp.Records) == 0 {
		return nil, refuseLegacy(dir)
	}
	ck, _, err := checkpointFromReplay(rp)
	return ck, err
}

// refuseLegacy fails when dir holds a legacy checkpoint.json. Callers
// ask only when dir has no journal to resume: resuming the legacy
// campaign is no longer supported, and starting over silently would
// discard it.
func refuseLegacy(dir string) error {
	path := filepath.Join(dir, legacyCheckpointFile)
	if _, err := os.Stat(path); err != nil {
		return nil
	}
	return fmt.Errorf("run: %s is a pre-journal (v1) checkpoint, which this binary no longer reads; delete it to start the campaign over", path)
}

// checkpointFromReplay rebuilds the checkpoint from a journal replay,
// validating the schema (meta first, outcomes in order, marks agreeing
// with the replayed totals). It also returns the running totals so the
// writer can continue the mark sequence.
func checkpointFromReplay(rp *journal.Replay) (*Checkpoint, markRecord, error) {
	var totals markRecord
	if len(rp.Records) == 0 {
		return nil, totals, nil
	}
	first := rp.Records[0]
	if first.Type != recMeta {
		return nil, totals, fmt.Errorf("run: journal %s: first record is %q, want %q; run `stlcompact -fsck` to inspect it, or delete the checkpoint directory to start over",
			rp.Path, first.Type, recMeta)
	}
	var meta metaRecord
	if err := json.Unmarshal(first.Body, &meta); err != nil {
		return nil, totals, fmt.Errorf("run: journal %s: meta record: %v; run `stlcompact -fsck` to inspect it", rp.Path, err)
	}
	if meta.Version != CheckpointVersion {
		return nil, totals, fmt.Errorf("run: journal %s has schema version %d, this binary writes %d; delete the checkpoint directory to start over",
			rp.Path, meta.Version, CheckpointVersion)
	}
	ck := &Checkpoint{Version: meta.Version, ConfigHash: meta.ConfigHash}
	for i, rec := range rp.Records[1:] {
		switch rec.Type {
		case recOutcome:
			var e Entry
			if err := json.Unmarshal(rec.Body, &e); err != nil {
				return nil, totals, fmt.Errorf("run: journal %s: record %d: %v; run `stlcompact -fsck` to inspect it", rp.Path, i+2, err)
			}
			if e.Index != len(ck.Entries) {
				return nil, totals, fmt.Errorf("run: journal %s: record %d holds outcome %d, want %d; run `stlcompact -fsck` to inspect it",
					rp.Path, i+2, e.Index, len(ck.Entries))
			}
			ck.Entries = append(ck.Entries, e)
			totals.Outcomes++
			totals.OrigSize += e.OrigSize
			totals.CompSize += e.CompSize
		case recMark:
			var m markRecord
			if err := json.Unmarshal(rec.Body, &m); err != nil {
				return nil, totals, fmt.Errorf("run: journal %s: record %d: %v", rp.Path, i+2, err)
			}
			if m != totals {
				return nil, totals, fmt.Errorf("run: journal %s: compaction mark %+v disagrees with the replayed outcomes %+v; run `stlcompact -fsck` to inspect it",
					rp.Path, m, totals)
			}
		default:
			return nil, totals, fmt.Errorf("run: journal %s: record %d has unknown type %q", rp.Path, i+2, rec.Type)
		}
	}
	return ck, totals, nil
}

// campaignLog is the runner's append handle on the write-ahead journal.
type campaignLog struct {
	j      *journal.Journal
	totals markRecord
}

// openCampaign opens (or creates) dir's campaign journal, replays it,
// and validates it against this run's config hash and library size.
// A directory with no journal but a legacy checkpoint.json is refused. The returned checkpoint holds every salvaged entry; notes
// carries human-readable salvage messages.
func openCampaign(ctx context.Context, dir, configHash string, nPTPs int) (*campaignLog, *Checkpoint, []string, error) {
	walPath := filepath.Join(dir, WALFile)
	// Refuse before Open creates a journal next to the legacy file.
	if fi, err := os.Stat(walPath); err != nil || fi.Size() == 0 {
		if err := refuseLegacy(dir); err != nil {
			return nil, nil, nil, err
		}
	}
	j, rp, err := journal.Open(ctx, walPath)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("run: opening journal: %w", err)
	}
	var notes []string
	if rp.Truncated {
		notes = append(notes, fmt.Sprintf(
			"journal %s: salvaged %d record(s) (%d of %d bytes); dropped corrupt tail (%s): %s",
			walPath, len(rp.Records), rp.GoodSize, rp.TotalSize, rp.Kind, rp.Reason))
	}
	fail := func(err error) (*campaignLog, *Checkpoint, []string, error) {
		j.Close()
		return nil, nil, nil, err
	}

	cl := &campaignLog{j: j}
	if len(rp.Records) > 0 {
		ck, totals, err := checkpointFromReplay(rp)
		if err != nil {
			return fail(err)
		}
		cl.totals = totals
		if ck.ConfigHash != configHash {
			return fail(fmt.Errorf("run: journal %s was written by a different configuration (hash %.12s, want %.12s); run `stlcompact -fsck` with the campaign's original flags, or delete %s to start over",
				walPath, ck.ConfigHash, configHash, dir))
		}
		if len(ck.Entries) > nPTPs {
			return fail(fmt.Errorf("run: journal %s has %d outcomes but the library has %d PTPs; delete %s to start over",
				walPath, len(ck.Entries), nPTPs, dir))
		}
		return cl, ck, notes, nil
	}

	// No journal records yet: a fresh start.
	if _, err := cl.j.Append(recMeta, metaRecord{Version: CheckpointVersion, ConfigHash: configHash, PTPs: nPTPs}); err != nil {
		return fail(fmt.Errorf("run: journaling campaign meta: %w", err))
	}
	return cl, &Checkpoint{Version: CheckpointVersion, ConfigHash: configHash}, notes, nil
}

// appendOutcome journals one finished PTP (fsync'd before returning)
// and emits a compaction mark every markEvery outcomes.
func (cl *campaignLog) appendOutcome(e Entry) error {
	if _, err := cl.j.Append(recOutcome, e); err != nil {
		return fmt.Errorf("run: journaling outcome %d (%s): %w", e.Index, e.Name, err)
	}
	cl.totals.Outcomes++
	cl.totals.OrigSize += e.OrigSize
	cl.totals.CompSize += e.CompSize
	if cl.totals.Outcomes%markEvery == 0 {
		if _, err := cl.j.Append(recMark, cl.totals); err != nil {
			return fmt.Errorf("run: journaling compaction mark: %w", err)
		}
	}
	return nil
}

// Close closes the underlying journal.
func (cl *campaignLog) Close() error { return cl.j.Close() }

// HashPTP fingerprints a PTP through its serialized form.
func HashPTP(p *stl.PTP) (string, error) {
	var buf bytes.Buffer
	if err := stl.WritePTP(&buf, p); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// ConfigHash fingerprints everything that determines a run's results:
// the GPU configuration, the per-module fault lists, the library's PTPs,
// and the deterministic compactor options. Workers and Simulator are
// excluded — the fault simulation is bit-identical at any worker count
// and over any (contract-honoring) simulation engine, so a resume may
// use a different parallelism, or distributed workers instead of the
// in-process engine, than the original run. Retry/quarantine knobs are
// excluded for the same reason: they change what happens on a crash,
// not what a successful compaction computes.
func ConfigHash(cfg gpu.Config, ms *core.ModuleSet, lib *stl.STL, opt core.Options) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "gpu:%+v\n", cfg)

	kinds := make([]circuits.ModuleKind, 0, len(ms.Modules))
	for k := range ms.Modules {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		m := ms.Modules[k]
		fmt.Fprintf(h, "module:%v gates:%d lanes:%d faults:%d\n",
			k, m.NL.NumGates(), m.Lanes, len(ms.Faults[k]))
		for _, f := range ms.Faults[k] {
			fmt.Fprintf(h, "f:%d.%d.%d.%v\n", f.Lane, f.Site.Gate, f.Site.Pin, f.Site.SA1)
		}
	}

	for _, p := range lib.PTPs {
		ph, err := HashPTP(p)
		if err != nil {
			return "", fmt.Errorf("run: hashing PTP %s: %w", p.Name, err)
		}
		fmt.Fprintf(h, "ptp:%s:%s\n", p.Name, ph)
	}

	fmt.Fprintf(h, "opt:reverse=%v instr=%v\n", opt.ReversePatterns, opt.InstructionGranularity)
	return hex.EncodeToString(h.Sum(nil)), nil
}
