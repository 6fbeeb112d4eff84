package run

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
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
// resume, as a schema mismatch rather than a misleading configuration
// change. Version 3 stopped hashing two deleted compactor options.
// Version 4 fingerprints PTPs with stl.Digest, a binary encoding of
// their canonical serialized form, and hashes faults as fixed-width
// records, so every Entry.OrigHash and config hash changed value.
// Version 5 added Entry.ShippedFaults, without which a resumed run
// cannot report the shipped library FC. Version 6 added
// Entry.OriginalFaults, the same for the original library FC. Version
// 7 hashes the FC tolerance, so every config hash changed value.
const CheckpointVersion = 7

// WALFile is the append-only write-ahead journal inside the checkpoint
// directory. One fsync'd record per PTP outcome; recovery replays it
// and truncates at the first corrupt or torn record.
const WALFile = "campaign.wal"

// legacyCheckpointFile is the pre-journal (v1) whole-state checkpoint.
// It is no longer read: a directory holding one and no journal records
// is refused (readJournal) rather than resumed or silently restarted,
// which would discard it.
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

	// OrigHash fingerprints the input PTP (its stl.Digest, a sha256
	// over a binary encoding of its canonical serialized form) so
	// resuming against an edited library fails loudly.
	OrigHash string `json:"origHash"`
	// Compacted is the WritePTP serialization of the compacted program;
	// present only when Status is StatusCompacted (reverted, excluded
	// and quarantined PTPs keep the original, which the library holds)
	// and a journal is open — nothing else reads it.
	Compacted json.RawMessage `json:"compacted,omitempty"`
	// DroppedFaults is the delta of the target module's campaign
	// detected-id set contributed by this PTP (ascending). Replaying the
	// deltas in order reconstructs the cross-PTP fault-dropping state.
	DroppedFaults []int32 `json:"droppedFaults,omitempty"`
	// OriginalFaults is the delta of the module's original set (see
	// LibraryFC) contributed by this PTP's original program beyond its
	// DroppedFaults, which the original set also takes, and
	// ShippedFaults that of the shipped set by the program this PTP
	// ships. Replaying the deltas in order reconstructs the library FC.
	OriginalFaults []int32 `json:"originalFaults,omitempty"`
	ShippedFaults  []int32 `json:"shippedFaults,omitempty"`

	// ship is the program this PTP ships: the compacted one, or the
	// library's original. It is not journaled; a resume takes the
	// compacted program readJournal decoded.
	ship *stl.PTP
}

// Checkpoint is the in-memory state of a (possibly partial) STL
// compaction run, as reconstructed from the journal.
type Checkpoint struct {
	Version    int     `json:"version"`
	ConfigHash string  `json:"configHash"`
	Entries    []Entry `json:"entries"`
}

// LoadCheckpoint reads the campaign state persisted in dir's
// write-ahead journal, checking its schema alone. Missing state is not
// an error: it returns (nil, nil) so a first run starts fresh — unless
// dir holds a legacy checkpoint.json, which is refused. A journal with
// a corrupt tail loads the records before the corruption (exactly what
// a resume would use).
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	rd, err := readJournal(dir, expectation{})
	if err != nil {
		return nil, err
	}
	if err := rd.refusal(); err != nil {
		return nil, err
	}
	return rd.ck, nil
}

// expectation is what a campaign expects of its journal. A zero field
// skips its checks, so fsck without flags checks the schema alone.
type expectation struct {
	hash string   // the config hash
	lib  *stl.STL // the library, with each PTP's stl.Digest in digests
	// digests are lib's PTP digests, from the pass that builds the
	// config hash.
	digests []string
	ms      *core.ModuleSet // each module's fault list, for the id ranges
}

// journalRead is one journal replay walked against an expectation: the
// checkpoint a resume continues from and the fsck report of every
// finding, in journal order after the tail's.
type journalRead struct {
	FsckReport
	rp *journal.Replay
	// ck is nil when the journal holds no record.
	ck *Checkpoint
	// totals are the running totals after the last outcome, so the
	// writer continues the mark sequence.
	totals markRecord
}

// refusal is the error a resume refuses the journal with: its first
// finding that refuses.
func (rd *journalRead) refusal() error {
	if is := firstRefusal(rd.Issues); is != nil {
		return fmt.Errorf("run: journal %s: %s; run `stlcompact -fsck` with the campaign's original flags to list every finding, or delete %s to start over",
			rd.JournalPath, is.Detail, filepath.Dir(rd.JournalPath))
	}
	return nil
}

// readJournal scans dir's journal, without modifying it, and walks it
// against want. It is the one reader of the journal: a resume refuses
// on the first finding other than the tail's, and fsck reports them
// all. Every outcome's compacted program is decoded here, once; the
// entry carries it, or the library's original, as the program it
// ships.
func readJournal(dir string, want expectation) (*journalRead, error) {
	path := filepath.Join(dir, WALFile)
	rp, err := journal.Scan(path)
	if err != nil {
		return nil, fmt.Errorf("run: reading journal: %w", err)
	}
	rd := &journalRead{FsckReport: FsckReport{JournalPath: path, Records: len(rp.Records)}, rp: rp}
	if rp.Truncated {
		kind := FsckTornTail
		switch rp.Kind {
		case journal.CorruptCRC:
			kind = FsckCRC
		case journal.CorruptSeq:
			kind = FsckSeq
		}
		rd.add(kind, "journal tail dropped after %d good byte(s) of %d: %s",
			rp.GoodSize, rp.TotalSize, rp.Reason)
	}
	if len(rp.Records) == 0 {
		legacy := filepath.Join(dir, legacyCheckpointFile)
		if _, err := os.Stat(legacy); err == nil {
			rd.add(FsckSchema, "%s is a pre-journal (v1) checkpoint, which this binary no longer reads; delete it to start the campaign over", legacy)
		}
		return rd, nil
	}
	first := rp.Records[0]
	var meta metaRecord
	if first.Type != recMeta {
		rd.add(FsckSchema, "first record is %q, want %q", first.Type, recMeta)
		return rd, nil
	}
	if err := json.Unmarshal(first.Body, &meta); err != nil {
		rd.add(FsckSchema, "meta record does not decode: %v", err)
		return rd, nil
	}
	if meta.Version != CheckpointVersion {
		rd.add(FsckSchema, "schema version %d, this binary reads %d", meta.Version, CheckpointVersion)
		return rd, nil
	}
	if want.hash != "" && meta.ConfigHash != want.hash {
		rd.add(FsckConfigHash, "written by a different configuration (hash %.12s, this campaign hashes to %.12s); resuming would mix incompatible states",
			meta.ConfigHash, want.hash)
	}
	rd.ck = &Checkpoint{Version: meta.Version, ConfigHash: meta.ConfigHash}
	for i, rec := range rp.Records[1:] {
		switch rec.Type {
		case recOutcome:
			var e Entry
			if err := json.Unmarshal(rec.Body, &e); err != nil {
				rd.add(FsckSchema, "record %d does not decode as an outcome: %v", i+2, err)
				continue
			}
			rd.checkEntry(i+2, &e, want)
			rd.ck.Entries = append(rd.ck.Entries, e)
			rd.totals.Outcomes++
			rd.totals.OrigSize += e.OrigSize
			rd.totals.CompSize += e.CompSize
		case recMark:
			var m markRecord
			if err := json.Unmarshal(rec.Body, &m); err != nil {
				rd.add(FsckSchema, "record %d does not decode as a mark: %v", i+2, err)
			} else if m != rd.totals {
				rd.add(FsckMark, "mark at record %d says %d outcomes (orig %d, comp %d) but the replay holds %d (orig %d, comp %d)",
					i+2, m.Outcomes, m.OrigSize, m.CompSize, rd.totals.Outcomes, rd.totals.OrigSize, rd.totals.CompSize)
			}
		default:
			rd.add(FsckSchema, "record %d has unknown type %q", i+2, rec.Type)
		}
	}
	return rd, nil
}

// checkEntry checks the outcome journal record rec holds against its
// position and the library, and sets the program it ships.
func (rd *journalRead) checkEntry(rec int, e *Entry, want expectation) {
	i := len(rd.ck.Entries)
	if e.Index != i {
		rd.add(FsckSchema, "record %d holds outcome %d, want %d", rec, e.Index, i)
	}
	if e.Status == StatusCompacted {
		p, err := stl.ReadPTP(bytes.NewReader(e.Compacted))
		if err != nil {
			rd.add(FsckSchema, "outcome %d (%s): compacted program does not decode: %v", i, e.Name, err)
		}
		e.ship = p
	}
	if want.lib == nil {
		return
	}
	if i >= len(want.lib.PTPs) {
		rd.add(FsckPTPDrift, "outcome %d (%s) has no PTP at that index in the library (%d PTPs)",
			i, e.Name, len(want.lib.PTPs))
		return
	}
	p := want.lib.PTPs[i]
	if e.Name != p.Name || e.OrigHash != want.digests[i] {
		rd.add(FsckPTPDrift, "outcome %d, computed from PTP %s (hash %.12s), does not match library PTP %s (hash %.12s); the library changed after the campaign started",
			i, e.Name, e.OrigHash, p.Name, want.digests[i])
	}
	if e.ship == nil {
		e.ship = p
	}
	if want.ms == nil {
		return
	}
	n := int32(len(want.ms.Faults[p.Target]))
	for _, set := range []struct {
		name string
		ids  []int32
	}{{"dropped", e.DroppedFaults}, {"original", e.OriginalFaults}, {"shipped", e.ShippedFaults}} {
		for _, id := range set.ids {
			if id < 0 || id >= n {
				rd.add(FsckFaultID, "outcome %d (%s) has %s fault id %d outside the %v fault list (%d faults)",
					i, e.Name, set.name, id, p.Target, n)
				break
			}
		}
	}
}

// campaignLog is the runner's append handle on the write-ahead journal.
type campaignLog struct {
	j      *journal.Journal
	totals markRecord
}

// openCampaign reads dir's campaign journal against want and refuses
// on its first finding past a torn or corrupt tail, before anything on
// disk changes. Otherwise it opens the journal, which drops that tail,
// and returns the entries to resume with human-readable salvage notes;
// a journal with no records gets its meta record and resumes nothing.
func openCampaign(ctx context.Context, dir string, want expectation) (*campaignLog, []Entry, []string, error) {
	rd, err := readJournal(dir, want)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := rd.refusal(); err != nil {
		return nil, nil, nil, err
	}
	j, _, err := journal.Open(ctx, rd.JournalPath)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("run: opening journal: %w", err)
	}
	var notes []string
	if rp := rd.rp; rp.Truncated {
		notes = append(notes, fmt.Sprintf(
			"journal %s: salvaged %d record(s) (%d of %d bytes); dropped corrupt tail (%s): %s",
			rd.JournalPath, len(rp.Records), rp.GoodSize, rp.TotalSize, rp.Kind, rp.Reason))
	}
	cl := &campaignLog{j: j, totals: rd.totals}
	if rd.ck != nil {
		return cl, rd.ck.Entries, notes, nil
	}
	if _, err := j.Append(recMeta, metaRecord{Version: CheckpointVersion, ConfigHash: want.hash, PTPs: len(want.lib.PTPs)}); err != nil {
		j.Close()
		return nil, nil, nil, fmt.Errorf("run: journaling campaign meta: %w", err)
	}
	return cl, nil, notes, nil
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

// ConfigHash fingerprints everything that determines a run's results:
// the GPU configuration, the per-module fault lists, the library's PTPs,
// the deterministic compactor options and the FC tolerance
// (Options.FCTolerance), which decides whether each compacted PTP ships
// or reverts. Workers and Simulator are excluded — the fault simulation
// is bit-identical at any worker count and over any (contract-honoring)
// simulation engine, so a resume may use a different parallelism, or
// distributed workers instead of the in-process engine, than the
// original run. Retry/quarantine knobs are excluded for the same
// reason: they change what happens on a crash, not what a successful
// compaction computes.
func ConfigHash(cfg gpu.Config, ms *core.ModuleSet, lib *stl.STL, opt core.Options, fcTol float64) (string, error) {
	hash, _, err := configHash(cfg, ms, lib, opt, fcTol)
	return hash, err
}

// configHash is ConfigHash plus each library PTP's stl.Digest, in
// library order, so Run hashes every PTP once per campaign. Each fault
// is one fixed-width record (lane, gate, pin, SA1) after its module's
// header, and each PTP is its fixed-length digest, which covers the
// name: no field needs escaping.
func configHash(cfg gpu.Config, ms *core.ModuleSet, lib *stl.STL, opt core.Options, fcTol float64) (string, []string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "gpu:%+v\n", cfg)

	kinds := make([]circuits.ModuleKind, 0, len(ms.Modules))
	for k := range ms.Modules {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		m, faults := ms.Modules[k], ms.Faults[k]
		fmt.Fprintf(h, "module:%v gates:%d lanes:%d faults:%d\n",
			k, m.NL.NumGates(), m.Lanes, len(faults))
		rec := make([]byte, 0, 8*len(faults))
		for _, f := range faults {
			var sa1 byte
			if f.Site.SA1 {
				sa1 = 1
			}
			rec = binary.LittleEndian.AppendUint16(rec, uint16(f.Lane))
			rec = binary.LittleEndian.AppendUint32(rec, uint32(f.Site.Gate))
			rec = append(rec, byte(f.Site.Pin), sa1)
		}
		h.Write(rec)
	}

	digests, err := digestsOf(lib)
	if err != nil {
		return "", nil, err
	}
	for _, d := range digests {
		fmt.Fprintf(h, "ptp:%s\n", d)
	}

	fmt.Fprintf(h, "opt:reverse=%v instr=%v fctol=%v\n", opt.ReversePatterns, opt.InstructionGranularity, fcTol)
	return hex.EncodeToString(h.Sum(nil)), digests, nil
}

// digestsOf returns each library PTP's stl.Digest, in library order.
func digestsOf(lib *stl.STL) ([]string, error) {
	digests := make([]string, len(lib.PTPs))
	for i, p := range lib.PTPs {
		d, err := stl.Digest(p)
		if err != nil {
			return nil, fmt.Errorf("run: hashing PTP %s: %w", p.Name, err)
		}
		digests[i] = d
	}
	return digests, nil
}
