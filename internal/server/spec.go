// Package server is the crash-only campaign control plane: a
// long-running HTTP service that accepts STL compaction campaigns
// (submit / status / cancel / results / list), runs many of them
// concurrently against the shared fault-simulation fleet, and survives
// its own death at any instant.
//
// Everything the server knows lives in its state directory:
//
//   - queue.wal — an append-only journal (internal/journal) holding
//     every campaign state transition: submitted → leased → running →
//     done/failed/canceled. A restarted server replays it and carries
//     on; nothing is kept only in memory.
//   - LOCK — the state-dir lease: holder + expiry, renewed every
//     heartbeat. A crashed server stops renewing, and a successor (a
//     restart, or a second server pointed at the same directory)
//     acquires the lease after expiry and adopts every orphaned
//     campaign at its last journaled stage via the per-campaign run
//     WAL — no finished PTP is ever simulated twice.
//   - campaigns/<id>/ — each campaign's own crash-recovery journal
//     (internal/run's campaign.wal).
//   - cache/ — the content-addressed result cache, keyed by the
//     submitted spec (Spec.cacheKey) and checksum-verified on every
//     read. The key covers the spec, not the netlists, the simulator
//     or the compaction code, so a state directory's cache is valid
//     only for the binary that wrote it.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"gpustl/internal/core"
	"gpustl/internal/gpu"
	"gpustl/internal/ptpgen"
	"gpustl/internal/stl"
)

// MaxSpecBytes caps a submitted campaign spec (including an inline STL
// library). Real libraries are kilobytes; the cap exists so a hostile
// submission fails fast instead of exhausting server memory.
const MaxSpecBytes = 8 << 20

// Spec describes one compaction campaign a client submits. The
// workload is either an inline STL library (the in-field case: a
// device ships its test library to be compacted) or a generated one
// (Target/N/Seed, the same DU generation stlcompact -target DU uses).
type Spec struct {
	// Tenant attributes the campaign to a quota bucket. Empty maps to
	// "default".
	Tenant string `json:"tenant,omitempty"`
	// STL, when present, is the inline library: the JSON produced by
	// WriteSTL / `stlcompact -save`.
	STL json.RawMessage `json:"stl,omitempty"`
	// Target/N/Seed generate a library when STL is absent. Only "DU"
	// (IMM + MEM + CNTRL PTPs) can be generated server-side; SP/SFU
	// libraries need ATPG and must be submitted inline. Seed also seeds
	// the fault-list sample, exactly as stlcompact's -seed does, and
	// both generate the library with ptpgen.DU, so a generated campaign
	// byte-matches the equivalent stlcompact run.
	Target string `json:"target,omitempty"`
	N      int    `json:"n,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	// Faults samples each target module's fault list (0 = default 4000).
	Faults int `json:"faults,omitempty"`
	// Reverse and Instr mirror stlcompact's -reverse / -instr.
	Reverse bool `json:"reverse,omitempty"`
	Instr   bool `json:"instr,omitempty"`
	// FCTol is the FC-safety tolerance in percentage points (default 5).
	FCTol *float64 `json:"fctol,omitempty"`
	// MaxPTPRetries bounds crash-class PTP retries (default 2).
	MaxPTPRetries *int `json:"maxPtpRetries,omitempty"`
}

func (sp *Spec) tenant() string {
	if sp.Tenant == "" {
		return "default"
	}
	return sp.Tenant
}

func (sp *Spec) fcTol() float64 {
	if sp.FCTol == nil {
		return 5
	}
	return *sp.FCTol
}

func (sp *Spec) maxPTPRetries() int {
	if sp.MaxPTPRetries == nil {
		return 2
	}
	return *sp.MaxPTPRetries
}

func (sp *Spec) faultSample() int {
	if sp.Faults <= 0 {
		return 4000
	}
	return sp.Faults
}

// Validate checks the parts of a spec that can be judged without
// building the (expensive) module environment, so a bad submission is
// rejected on the HTTP path in microseconds.
func (sp *Spec) Validate() error {
	if len(sp.STL) == 0 {
		if sp.Target != "DU" {
			return fmt.Errorf("server: spec needs an inline stl or target \"DU\" (got target %q)", sp.Target)
		}
		if sp.N < 1 || sp.N > 4096 {
			return fmt.Errorf("server: generated campaign n=%d out of range [1,4096]", sp.N)
		}
	}
	if len(sp.STL) > MaxSpecBytes {
		return fmt.Errorf("server: inline stl exceeds %d-byte limit", MaxSpecBytes)
	}
	if sp.Faults < 0 {
		return errors.New("server: negative fault sample")
	}
	return nil
}

// cacheKey is the content address of the campaign's result: the
// SHA-256 of the spec as the queue journals it, with Tenant cleared so
// tenants share entries. Every field that shapes the artifact — the
// library, Faults, Reverse, Instr, FCTol — is in it by construction.
func (sp Spec) cacheKey() (string, error) {
	sp.Tenant = ""
	b, err := json.Marshal(sp)
	if err != nil {
		return "", fmt.Errorf("server: hashing spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// env is a campaign's fully built execution environment.
type env struct {
	cfg  gpu.Config
	ms   *core.ModuleSet
	lib  *stl.STL
	copt core.Options
}

// buildEnv constructs the campaign environment a spec describes. It is
// deterministic: the same spec always yields the same environment.
func buildEnv(sp *Spec) (*env, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	var lib *stl.STL
	// sampleSeed mirrors stlcompact, where -seed (default 1) seeds both
	// PTP generation and the fault-list sample: a generated campaign and
	// `stlcompact -target DU` with the same seed/n/faults must produce
	// byte-identical artifacts. Inline libraries carry no generation
	// seed, so they sample with stlcompact's default.
	sampleSeed := int64(1)
	if len(sp.STL) > 0 {
		s, err := stl.ReadSTL(bytes.NewReader(sp.STL))
		if err != nil {
			return nil, fmt.Errorf("server: inline stl: %w", err)
		}
		lib = s
	} else {
		sampleSeed = sp.Seed
		lib = &stl.STL{PTPs: ptpgen.DU(sp.N, sp.Seed)}
	}
	ms, err := core.NewModuleSet(lib, sp.faultSample(), sampleSeed)
	if err != nil {
		return nil, fmt.Errorf("server: building module set: %w", err)
	}
	copt := core.Options{
		ReversePatterns:        sp.Reverse,
		InstructionGranularity: sp.Instr,
	}
	return &env{cfg: gpu.DefaultConfig(), ms: ms, lib: lib, copt: copt}, nil
}
