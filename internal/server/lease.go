package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gpustl/internal/journal"
)

// The state-dir lease. journal.Journal is single-writer, so two
// servers pointed at the same state directory must not both append to
// queue.wal. The LOCK file is the arbiter: a JSON {holder, expiry}
// written with O_CREATE|O_EXCL on acquisition and renewed (atomically
// rewritten) every heartbeat. Liveness is judged only by expiry —
// there is no "is the process alive" check, because a crash-only
// design must treat a wedged process and a dead one identically:
//
//   - clean shutdown removes LOCK → a successor acquires instantly;
//   - a crash leaves LOCK behind → a successor waits out the expiry,
//     then breaks the lock and adopts everything via journal replay.
//
// Holder names must be unique per server instance (the daemon appends
// its pid); a holder that reads back its own name treats the lock as
// its own, which makes restart-after-crash with the same name safe.

const lockFile = "LOCK"

// dirLease is the on-disk LOCK schema.
type dirLease struct {
	Holder string `json:"holder"`
	// Expiry is absolute unix nanoseconds; a peer's clock judges it,
	// so LeaseTTL must dwarf plausible clock skew between servers
	// sharing a state dir (they normally share a machine too).
	Expiry int64 `json:"expiry"`
}

// errLockHeld reports an unexpired lock owned by someone else.
var errLockHeld = errors.New("server: state dir is locked by a live holder")

func lockPath(dir string) string { return filepath.Join(dir, lockFile) }

// readLock returns the current LOCK contents, or nil if absent. A
// malformed LOCK (torn write by a dying writer) is treated as absent —
// the atomically-written rename path makes that near-impossible, and
// refusing to start over an unreadable lock would turn one crash into
// a permanent outage.
func readLock(dir string) *dirLease {
	b, err := os.ReadFile(lockPath(dir))
	if err != nil {
		return nil
	}
	var l dirLease
	if json.Unmarshal(b, &l) != nil || l.Holder == "" {
		return nil
	}
	return &l
}

// acquireLock takes the state-dir lease for holder, valid until
// expiry. It succeeds when no LOCK exists, when the existing lock has
// expired, or when the existing lock already names this holder (a
// restart after a crash, before the old lease ran out). Otherwise it
// returns errLockHeld with the current holder and remaining time.
func acquireLock(dir, holder string, expiry time.Time) error {
	cur := readLock(dir)
	now := time.Now()
	if cur != nil && cur.Holder != holder && cur.Expiry > now.UnixNano() {
		return fmt.Errorf("%w: %s for another %s", errLockHeld, cur.Holder,
			time.Duration(cur.Expiry-now.UnixNano()).Round(time.Millisecond))
	}
	if cur != nil {
		// Expired or our own: break it, then race for the exclusive
		// create below. The loser of the race sees errLockHeld-shaped
		// os.ErrExist and retries on its next poll.
		if err := os.Remove(lockPath(dir)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("server: breaking expired lock: %w", err)
		}
	}
	b, err := json.Marshal(dirLease{Holder: holder, Expiry: expiry.UnixNano()})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(lockPath(dir), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o666)
	if err != nil {
		if os.IsExist(err) {
			return fmt.Errorf("%w: lost acquisition race", errLockHeld)
		}
		return fmt.Errorf("server: creating lock: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("server: writing lock: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("server: syncing lock: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	return journal.SyncDir(dir)
}

// renewLock extends this holder's lease. It refuses — with an error
// the caller must treat as lease loss — if the LOCK no longer names
// this holder (a peer judged us dead and took over while we were
// stalled). The server.lease.expire failpoint simulates exactly that
// stall: the renewal is skipped, so the lease runs out for real.
func renewLock(ctx context.Context, dir, holder string, expiry time.Time) error {
	if err := fpLeaseExpire.Inject(ctx); err != nil {
		return fmt.Errorf("server: lease renewal suppressed: %w", err)
	}
	cur := readLock(dir)
	if cur == nil || cur.Holder != holder {
		who := "nobody"
		if cur != nil {
			who = cur.Holder
		}
		return fmt.Errorf("server: lease lost: lock now held by %s", who)
	}
	b, err := json.Marshal(dirLease{Holder: holder, Expiry: expiry.UnixNano()})
	if err != nil {
		return err
	}
	return journal.WriteFileAtomic(lockPath(dir), b)
}

// releaseLock removes the LOCK iff this holder still owns it — the
// clean-shutdown path that lets a successor start without waiting out
// the lease.
func releaseLock(dir, holder string) {
	cur := readLock(dir)
	if cur == nil || cur.Holder != holder {
		return
	}
	os.Remove(lockPath(dir))
	journal.SyncDir(dir)
}
