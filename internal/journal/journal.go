// Package journal is the durability substrate of long compaction
// campaigns: an append-only, fsync'd write-ahead journal (JSONL with a
// per-record CRC32C and a monotonic sequence number), atomic+durable
// file replacement, and checksum sidecars for output artifacts.
//
// The journal is crash-only by design: writers never rewrite existing
// bytes, recovery is a forward scan that keeps every record before the
// first corrupt or torn one, and reopening for append truncates the bad
// tail so the file is always a clean prefix of valid records. A
// multi-hour campaign killed at any instant therefore loses at most the
// record being written, and a reader can state exactly what was
// salvaged.
package journal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"gpustl/internal/failpoint"
)

// castagnoli is the CRC32C polynomial table (the same polynomial
// storage systems use; hardware-accelerated on most CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCRC marks a record whose stored CRC32C does not match its content.
var ErrCRC = errors.New("CRC32C mismatch")

// ErrDiskFull marks an append that failed because the filesystem is out
// of space (ENOSPC) or quota (EDQUOT). Callers should treat it as an
// environmental condition — pause or fail the campaign — rather than
// journal corruption: the tail has already been healed when Append
// returns it.
var ErrDiskFull = errors.New("journal: disk full")

// ErrShortWrite marks an append where the kernel accepted fewer bytes
// than the record needs (a torn write observed at write time rather than
// at recovery). Like ErrDiskFull it is surfaced distinctly — previously
// such a tail was only discovered on the next Scan and misreported as a
// CRC torn-tail — and the partial bytes are truncated away before Append
// returns.
var ErrShortWrite = errors.New("journal: short write")

// Failpoints on the append path. journal.append.write intercepts the
// record write (error / torn short write / bit corruption); it fires
// before bytes reach the kernel so torn and corrupt payloads really
// land on disk. journal.append.sync injects fsync failures (e.g.
// error(ENOSPC): data accepted into the page cache, no room to flush).
var (
	fpAppendWrite = failpoint.New("journal.append.write")
	fpAppendSync  = failpoint.New("journal.append.sync")
)

// isDiskFull reports whether err is an out-of-space condition.
func isDiskFull(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT)
}

// classifyWriteErr maps a raw write error (and byte count) to the
// journal's distinct error kinds.
func classifyWriteErr(err error, wrote, want int) error {
	switch {
	case err != nil && isDiskFull(err):
		return fmt.Errorf("%w (wrote %d of %d bytes): %v", ErrDiskFull, wrote, want, err)
	case err != nil && errors.Is(err, io.ErrShortWrite):
		return fmt.Errorf("%w (wrote %d of %d bytes)", ErrShortWrite, wrote, want)
	case err != nil:
		return err
	case wrote < want:
		return fmt.Errorf("%w (wrote %d of %d bytes)", ErrShortWrite, wrote, want)
	default:
		return nil
	}
}

// Record is one journal entry: a monotonically increasing sequence
// number (starting at 1), a caller-defined type tag, the CRC32C of
// "<seq>:<type>:<body>" in lowercase hex, and the JSON body verbatim.
// One record is one line of the journal file.
type Record struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	CRC  string          `json:"crc"`
	Body json.RawMessage `json:"body"`
}

// crcOf computes the record checksum over the sequence number, the type
// tag and the exact body bytes, so corruption of any of the three is
// detected.
func crcOf(seq uint64, typ string, body []byte) uint32 {
	h := crc32.New(castagnoli)
	fmt.Fprintf(h, "%d:%s:", seq, typ)
	h.Write(body)
	return h.Sum32()
}

// EncodeRecord marshals body and frames it as one journal line
// (including the trailing newline).
func EncodeRecord(seq uint64, typ string, body any) ([]byte, error) {
	if typ == "" {
		return nil, errors.New("journal: empty record type")
	}
	b, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding %s record: %w", typ, err)
	}
	rec := Record{Seq: seq, Type: typ, CRC: fmt.Sprintf("%08x", crcOf(seq, typ, b)), Body: b}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: framing %s record: %w", typ, err)
	}
	return append(line, '\n'), nil
}

// DecodeRecord parses one journal line (without the newline) and
// verifies its checksum. A mismatch returns an error wrapping ErrCRC.
func DecodeRecord(line []byte) (*Record, error) {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("journal: malformed record: %w", err)
	}
	if rec.Type == "" {
		return nil, errors.New("journal: record has no type")
	}
	if len(rec.Body) == 0 {
		return nil, fmt.Errorf("journal: %s record has no body", rec.Type)
	}
	var stored uint32
	if n, err := fmt.Sscanf(rec.CRC, "%08x", &stored); n != 1 || err != nil || len(rec.CRC) != 8 {
		return nil, fmt.Errorf("journal: %s record seq %d: bad CRC field %q", rec.Type, rec.Seq, rec.CRC)
	}
	if got := crcOf(rec.Seq, rec.Type, rec.Body); got != stored {
		return nil, fmt.Errorf("journal: %s record seq %d: %w (stored %s, computed %08x)",
			rec.Type, rec.Seq, ErrCRC, rec.CRC, got)
	}
	return &rec, nil
}

// CorruptKind classifies why a journal scan stopped early.
type CorruptKind string

const (
	CorruptNone CorruptKind = ""               // clean journal
	CorruptTorn CorruptKind = "torn-record"    // partial/garbled write (crash mid-append)
	CorruptCRC  CorruptKind = "crc-mismatch"   // bit rot: framing intact, checksum wrong
	CorruptSeq  CorruptKind = "sequence-break" // records out of order or missing
)

// Replay is the result of scanning a journal file: every record before
// the first corruption, plus an exact account of what (if anything) was
// lost.
type Replay struct {
	Path    string
	Records []Record
	// GoodSize is the byte offset just past the last valid record —
	// the offset recovery truncates to.
	GoodSize  int64
	TotalSize int64
	// Truncated reports that the file has content past GoodSize that
	// failed validation; Kind and Reason say why.
	Truncated bool
	Kind      CorruptKind
	Reason    string
}

// Scan reads the journal at path and validates it record by record,
// stopping at the first torn or corrupt record. A missing file is not
// an error: it returns an empty replay, so first runs start fresh.
// Scan never modifies the file.
func Scan(path string) (*Replay, error) {
	rp := &Replay{Path: path}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return rp, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	rp.TotalSize = int64(len(data))
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			rp.Truncated = true
			rp.Kind = CorruptTorn
			rp.Reason = fmt.Sprintf("torn record at byte %d (no trailing newline)", off)
			break
		}
		rec, err := DecodeRecord(data[off : off+nl])
		if err != nil {
			rp.Truncated = true
			rp.Kind = CorruptTorn
			if errors.Is(err, ErrCRC) {
				rp.Kind = CorruptCRC
			}
			rp.Reason = fmt.Sprintf("record %d at byte %d: %v", len(rp.Records)+1, off, err)
			break
		}
		if rec.Seq != uint64(len(rp.Records))+1 {
			rp.Truncated = true
			rp.Kind = CorruptSeq
			rp.Reason = fmt.Sprintf("sequence break at byte %d: record claims seq %d, want %d",
				off, rec.Seq, len(rp.Records)+1)
			break
		}
		rp.Records = append(rp.Records, *rec)
		off += nl + 1
		rp.GoodSize = int64(off)
	}
	return rp, nil
}

// Journal is an open write-ahead journal positioned for append. Every
// Append is fsync'd before it returns, so an acknowledged record
// survives a crash or power loss.
type Journal struct {
	f    *os.File
	path string
	seq  uint64
	// off is the byte offset of the clean end of the journal: just past
	// the last fully acknowledged record. Failed appends truncate back
	// to it so a write-time error never leaves a torn tail for the next
	// Scan to misreport as corruption.
	off int64
	// fpctx keeps the values of the ctx Open ran under: appends take no
	// ctx, so the append failpoints evaluate against its set.
	fpctx context.Context
}

// Open scans the journal at path (creating it if absent), truncates any
// torn or corrupt tail so the file is a clean prefix of valid records,
// and returns the journal ready for append together with the replay of
// what survived. Callers decide what a truncated tail means; Open only
// guarantees the file is consistent afterwards. The journal's append
// failpoints evaluate against ctx's failpoint set for its whole life.
func Open(ctx context.Context, path string) (*Journal, *Replay, error) {
	rp, err := Scan(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	if rp.GoodSize < rp.TotalSize {
		// Drop the bad tail, durably, before anything is appended
		// after it.
		if err := f.Truncate(rp.GoodSize); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncating %s to byte %d: %w", path, rp.GoodSize, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: syncing %s: %w", path, err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seeking %s: %w", path, err)
	}
	// Make the directory entry itself durable: a freshly created
	// journal must not vanish with a power loss after its first
	// acknowledged append.
	if err := SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{f: f, path: path, seq: uint64(len(rp.Records)), off: rp.GoodSize,
		fpctx: context.WithoutCancel(ctx)}, rp, nil
}

// Seq returns the sequence number of the last appended record (0 when
// the journal is empty).
func (j *Journal) Seq() uint64 { return j.seq }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append frames body as the next record, writes it, and fsyncs the file
// before returning the record's sequence number. Failures are surfaced
// distinctly — ErrDiskFull for ENOSPC/EDQUOT, ErrShortWrite for a torn
// write observed at write time — and in both cases the partial tail is
// truncated back to the last acknowledged record before Append returns,
// so the caller may retry the same record and a concurrent crash still
// recovers a clean journal. The in-memory sequence number advances only
// on full success.
func (j *Journal) Append(typ string, body any) (uint64, error) {
	line, err := EncodeRecord(j.seq+1, typ, body)
	if err != nil {
		return 0, err
	}
	// The write failpoint decides what reaches the kernel: the full
	// line, a torn prefix (plus an error), or a bit-flipped copy.
	toWrite, injected := fpAppendWrite.InjectWrite(j.fpctx, line)
	n, werr := j.f.Write(toWrite)
	if werr == nil && injected != nil {
		// Injected torn write: the prefix landed, now surface the error
		// the real kernel would have returned.
		werr = injected
	}
	if cerr := classifyWriteErr(werr, n, len(line)); cerr != nil {
		if herr := j.truncateTail(); herr != nil {
			return 0, fmt.Errorf("journal: appending to %s: %w (and healing tail failed: %v)", j.path, cerr, herr)
		}
		return 0, fmt.Errorf("journal: appending to %s: %w", j.path, cerr)
	}
	serr := fpAppendSync.Inject(j.fpctx)
	if serr == nil {
		serr = j.f.Sync()
	}
	if serr != nil {
		// The record may or may not be durable; drop it so the journal
		// stays a clean prefix of acknowledged records. Record bodies
		// are deterministic, so a retry rewrites identical content.
		if isDiskFull(serr) {
			serr = fmt.Errorf("%w: %v", ErrDiskFull, serr)
		}
		if herr := j.truncateTail(); herr != nil {
			return 0, fmt.Errorf("journal: syncing %s: %w (and healing tail failed: %v)", j.path, serr, herr)
		}
		return 0, fmt.Errorf("journal: syncing %s: %w", j.path, serr)
	}
	j.seq++
	j.off += int64(len(toWrite))
	return j.seq, nil
}

// truncateTail durably discards any partially written record, restoring
// the file to the last acknowledged offset. Truncate does not move the
// file offset, so it must seek back explicitly or the next append would
// leave a hole of zero bytes.
func (j *Journal) truncateTail() error {
	if err := j.f.Truncate(j.off); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	_, err := j.f.Seek(j.off, io.SeekStart)
	return err
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }
