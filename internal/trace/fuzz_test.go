package trace

import (
	"slices"
	"testing"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/isa"
)

// firstOccurrences is the map-based reference dedup: each (lane, input
// vector) of the stream once, at its first occurrence, with that
// occurrence's cc, warp and pc.
func firstOccurrences(stream []fault.TimedPattern) []fault.TimedPattern {
	type key struct {
		lane int16
		pat  circuits.Pattern
	}
	seen := map[key]bool{}
	var out []fault.TimedPattern
	for _, p := range stream {
		if k := (key{p.Lane, p.Pat}); !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}

// FuzzCollectorDedup drives a Collector through SFUOp with random
// emission sequences, three bytes per pattern: the cc step (zero puts
// several patterns on one cycle), the lane, the warp, the pc and one of
// six functions on one of eight operands, so patterns repeat within and
// across lanes. Patterns must be the first-occurrence dedup of the
// emitted sequence and Reversed that of the reversed sequence, each
// entry carrying that occurrence's cc, warp and pc; Applied must find
// every emitted (lane, vector) and nothing else.
func FuzzCollectorDedup(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x40, 0x00, 0x01})
	f.Add([]byte{0x40, 0x12, 0x03, 0x41, 0x12, 0x03, 0x40, 0x34, 0x0b, 0x00, 0x12, 0x03})
	f.Add([]byte("repeated patterns within and across lanes, many per cycle"))
	seed := make([]byte, 3*300) // enough emissions to rehash the table
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)

	ops := []isa.Opcode{isa.OpRCP, isa.OpRSQ, isa.OpSIN, isa.OpCOS, isa.OpLG2, isa.OpEX2}
	f.Fuzz(func(t *testing.T, data []byte) {
		col := NewCollector(circuits.ModuleSFU)
		var emitted []fault.TimedPattern
		var cc uint64
		for ; len(data) >= 3; data = data[3:] {
			cc += uint64(data[0] >> 6)
			lane, warp, pc := int(data[0]&3), int(data[1]>>4), int(data[2]>>3)
			op, a := ops[int(data[1]&0xf)%len(ops)], uint32(data[2]&7)
			col.SFUOp(cc, warp, pc, lane, 0, op, a)
			fn, _ := circuits.SFUFnOf(op)
			emitted = append(emitted, fault.TimedPattern{
				CC: cc, Lane: int16(lane), Warp: int16(warp), PC: int32(pc),
				Pat: circuits.EncodeSFUPattern(fn, a),
			})
		}

		if want := firstOccurrences(emitted); !slices.Equal(col.Patterns, want) {
			t.Fatalf("Patterns = %v, want %v", col.Patterns, want)
		}
		rev := slices.Clone(emitted)
		slices.Reverse(rev)
		if got, want := col.Reversed(), firstOccurrences(rev); !slices.Equal(got, want) {
			t.Fatalf("Reversed = %v, want %v", got, want)
		}
		for _, p := range emitted {
			if !col.Applied(p.Lane, p.Pat) {
				t.Fatalf("Applied misses lane %d pattern %v", p.Lane, p.Pat)
			}
		}
		// Operands stop at 7 and lanes at 3: neither of these was applied.
		if col.Applied(0, circuits.EncodeSFUPattern(circuits.SFUSin, 8)) ||
			col.Applied(4, circuits.EncodeSFUPattern(circuits.SFUSin, 0)) {
			t.Fatal("Applied finds a pattern the run never applied")
		}
	})
}
