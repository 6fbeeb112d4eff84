package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"gpustl/internal/journal"
	"gpustl/internal/obs"
)

// cache is the content-addressed result cache. An entry is the
// compacted STL for one submitted spec, stored under the spec's
// SHA-256 (Spec.cacheKey) with a .sum checksum sidecar. Writes are
// crash-atomic (journal.WriteFileAtomic); reads verify the checksum
// every time and treat any mismatch — rot, torn write, injected
// corruption — as a miss, never as servable data. A corrupted entry therefore costs a
// re-simulation, not a wrong artifact.
type cache struct {
	dir string

	mHits    *obs.Counter // gpustl_server_cache_hits_total
	mMisses  *obs.Counter // gpustl_server_cache_misses_total
	mCorrupt *obs.Counter // gpustl_server_cache_corrupt_total
	logf     func(string, ...any)
	// fpctx keeps the values of the ctx the cache was opened under:
	// server.cache.corrupt evaluates against its failpoint set.
	fpctx context.Context
}

func newCache(ctx context.Context, dir string, m *obs.Registry, logf func(string, ...any)) (*cache, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("server: cache dir: %w", err)
	}
	c := &cache{dir: dir, logf: logf, fpctx: context.WithoutCancel(ctx)}
	if m != nil {
		c.mHits = m.Counter("gpustl_server_cache_hits_total")
		c.mMisses = m.Counter("gpustl_server_cache_misses_total")
		c.mCorrupt = m.Counter("gpustl_server_cache_corrupt_total")
	}
	return c, nil
}

// path returns the artifact path for a cache key. Keys are hex
// digests, so they are filesystem-safe by construction.
func (c *cache) path(key string) string {
	return filepath.Join(c.dir, key+".stl.json")
}

// get returns the verified artifact bytes for key, or (nil, false) on
// a miss. Every read re-verifies the checksum sidecar: a missing
// sidecar or a mismatch is logged, counted on the corrupt metric, and
// reported as a miss so the caller re-simulates.
func (c *cache) get(key string) ([]byte, bool) {
	p := c.path(key)
	if err := journal.VerifyFileSum(p); err != nil {
		if errors.Is(err, journal.ErrNoSum) {
			if _, statErr := os.Stat(p); statErr != nil {
				// Neither artifact nor sidecar: a clean miss.
				c.mMisses.Inc()
				return nil, false
			}
			// Artifact without its sidecar: a crash landed between the
			// two writes, or the sidecar rotted away. Fall through to
			// the corrupt path — unverifiable bytes are never served.
		}
		// Anything else — checksum mismatch, missing sidecar, torn
		// entry — is a verified integrity failure. Quarantine the pair
		// so the subsequent Put does not have to fight stale bytes.
		c.mCorrupt.Inc()
		c.mMisses.Inc()
		if c.logf != nil {
			c.logf("cache: entry %s failed verification, treating as miss: %v", key, err)
		}
		os.Remove(p)
		os.Remove(journal.SumPath(p))
		return nil, false
	}
	b, err := os.ReadFile(p)
	if err != nil {
		c.mMisses.Inc()
		return nil, false
	}
	c.mHits.Inc()
	return b, true
}

// put stores the artifact bytes for key. The server.cache.corrupt
// failpoint corrupts the artifact as written, but the checksum sidecar
// is always computed from the clean bytes — so an injected corruption
// is exactly what a read-side verification must catch. Write order is
// artifact first, sidecar second: a crash between the two leaves an
// artifact without a sum, which get() treats as corrupt (a miss),
// never as data.
func (c *cache) put(key string, data []byte) error {
	stored, err := fpCacheCorrupt.InjectWrite(c.fpctx, data)
	if err != nil {
		return fmt.Errorf("server: cache write: %w", err)
	}
	p := c.path(key)
	if err := journal.WriteFileAtomic(p, stored); err != nil {
		return fmt.Errorf("server: cache write %s: %w", key, err)
	}
	if err := journal.WriteSum(p, data); err != nil {
		return fmt.Errorf("server: cache sum %s: %w", key, err)
	}
	return nil
}

// errNotCached distinguishes "no such artifact" from I/O failures on
// the results endpoint.
var errNotCached = errors.New("server: artifact not in cache")
