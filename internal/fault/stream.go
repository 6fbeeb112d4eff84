package fault

import (
	"slices"
	"sort"

	"gpustl/internal/circuits"
	"gpustl/internal/netlist"
)

// AutoBlockWords picks the evaluator block width, in 64-pattern machine
// words, for a run whose largest per-lane deduplicated stream holds the
// given number of patterns: the narrowest width of the supported sweep
// set {1, 4, 8, 16} whose single block still covers the stream. Wider
// blocks amortize the per-fault visit cost (site delta, observability
// memo, skip bookkeeping) over more patterns, but cost proportionally
// more per good-circuit sweep — so there is no point going wider than
// the stream.
func AutoBlockWords(patterns int) int {
	switch {
	case patterns <= 64:
		return 1
	case patterns <= 4*64:
		return 4
	case patterns <= 8*64:
		return 8
	}
	return netlist.MaxBlockWords
}

// blockStim is the precomputed stimulus of one block (64×W patterns) of
// a lane's deduplicated stream: the packed input vectors Evaluator.Run
// consumes, the global stream index of each slot's earliest original
// occurrence, and the per-cone-class skip set. Blocks are built once per
// run and shared read-only across shards, hoisting the per-shard input
// clearing and re-packing out of the hot loop entirely.
type blockStim struct {
	inputs []uint64 // W packed words per primary input, input-major
	gidx   []int32  // first-occurrence global stream index per slot
	// skip is a bitset over cone-equivalence classes: bit c set when this
	// block's projection onto class c's detection support is identical to
	// an earlier block's. A fault of class c still undetected here was
	// undetected on that earlier block under the same effective stimulus,
	// so its detection mask is a known zero and the whole evaluation can
	// be skipped. nil on the first block and for classes never marked.
	skip []uint64
}

// laneStream is one lane's deduplicated, pre-packed pattern stream.
type laneStream struct {
	blocks []blockStim
	total  int // original pattern count, duplicates included
	unique int // patterns kept after dedup
}

// buildLaneStreams deduplicates and packs the per-lane streams for one
// simulation run. Dedup is per lane: a TimedPattern whose input vector
// (circuits.Pattern is a comparable value) already occurred earlier in
// the same lane's stream is dropped, and any detection it would have
// produced is attributed to that earlier occurrence — which is exactly
// where the reference engine first detects it, since identical stimulus
// yields identical detection masks. First-occurrence order is preserved,
// so first-detection indices and cc values are byte-identical.
//
// classUsed[lane] restricts the block-level skip analysis to cone
// classes that actually contain undetected faults in that lane; nil
// analyses every class.
//
// reqWords fixes the block width in 64-pattern words; 0 lets
// AutoBlockWords pick it from the largest per-lane unique stream (which
// is why dedup runs as a first phase, before any packing). The chosen
// width is returned alongside the streams so the caller can build
// matching evaluators.
func buildLaneStreams(nl *netlist.Netlist, ordered []TimedPattern, laneIdx [][]int32,
	classUsed [][]uint64, reqWords int) ([]laneStream, int) {

	numIn := len(nl.Inputs)
	lanes := make([]laneStream, len(laneIdx))

	// Phase 1: per-lane dedup into first-occurrence-ordered unique lists.
	// The dictionary is per lane. An exact-match open-addressed table
	// (power-of-two, ≤50% load) replaces map[Pattern]struct{}: the hash
	// only picks buckets, equality is the comparison of the packed
	// words, so dedup is exact either way — just without per-insert
	// hashing and bucket bookkeeping overhead.
	type uniqStream struct {
		pats []circuits.Pattern
		gidx []int32
	}
	uniq := make([]uniqStream, len(laneIdx))
	var table []int32 // open-addressed dictionary: slot -> pats index
	maxUnique := 0
	for lane, idxs := range laneIdx {
		lanes[lane].total = len(idxs)
		if len(idxs) == 0 {
			continue
		}
		need := 2
		for need < 2*len(idxs) {
			need <<= 1
		}
		if len(table) < need {
			table = make([]int32, need)
		}
		tbl := table[:need]
		for i := range tbl {
			tbl[i] = -1
		}
		hmask := uint64(need - 1)
		u := &uniq[lane]
		u.pats = make([]circuits.Pattern, 0, len(idxs))
		u.gidx = make([]int32, 0, len(idxs))
		for _, gi := range idxs {
			p := ordered[gi].Pat
			h := hashPattern(p) & hmask
			dup := false
			for {
				j := tbl[h]
				if j < 0 {
					tbl[h] = int32(len(u.pats))
					break
				}
				if u.pats[j] == p {
					dup = true
					break
				}
				h = (h + 1) & hmask
			}
			if dup {
				continue
			}
			u.pats = append(u.pats, p)
			u.gidx = append(u.gidx, gi)
		}
		lanes[lane].unique = len(u.pats)
		if len(u.pats) > maxUnique {
			maxUnique = len(u.pats)
		}
	}

	w := reqWords
	if w <= 0 {
		w = AutoBlockWords(maxUnique)
	}

	// Phase 2: pack each lane's unique stream into 64×w-pattern blocks,
	// one 64-pattern transpose per word. Bit order equals stream order —
	// pattern s of a block sits at word s/64, bit s%64 — so the earliest
	// set bit of any detection mask is the earliest unique pattern at
	// every width.
	bp := 64 * w
	for lane := range lanes {
		u, ls := &uniq[lane], &lanes[lane]
		if len(u.pats) == 0 {
			continue
		}
		ls.blocks = make([]blockStim, 0, (len(u.pats)+bp-1)/bp)
		for base := 0; base < len(u.pats); base += bp {
			end := base + bp
			if end > len(u.pats) {
				end = len(u.pats)
			}
			blk := blockStim{
				inputs: make([]uint64, numIn*w),
				gidx:   u.gidx[base:end:end],
			}
			for word := 0; base+word*64 < end; word++ {
				lo := base + word*64
				hi := min(lo+64, end)
				circuits.PackPatternsAt(u.pats[lo:hi], blk.inputs, numIn, w, word)
			}
			ls.blocks = append(ls.blocks, blk)
		}
		var used []uint64
		if classUsed != nil {
			used = classUsed[lane]
		}
		buildClassSkips(nl.Cone(), numIn, ls, used, w)
	}
	return lanes, w
}

// hashPattern mixes a pattern's packed words into a table-bucket hash.
// Collisions only cost probes — matching is exact — so a fast mixer is
// all that is needed.
func hashPattern(p circuits.Pattern) uint64 {
	h := p.W[0]*0x9E3779B97F4A7C15 ^ p.W[1]*0xBF58476D1CE4E5B9
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 29
	return h
}

// buildClassSkips marks, for every block and cone class, whether the
// block's stimulus projected onto the class's detection support already
// occurred in an earlier block of the lane. Matching is hash-bucketed
// with exact word comparison, so a hash collision can never produce an
// unsound skip. Projections compare all w words of each support input;
// only the last block of a lane can be partial, so an earlier matching
// block is always full and its (zero) detection mask covers every
// pattern the current block can present — a partial block's zero-padded
// tail matching means the earlier block really held those values too.
func buildClassSkips(ci *netlist.ConeInfo, numIn int, ls *laneStream, used []uint64, w int) {
	if len(ls.blocks) < 2 {
		return
	}
	nc := ci.NumClasses()
	skipWords := (nc + 63) / 64
	seen := make(map[uint64][]int32) // projected-stimulus hash -> block indices
	for c := int32(0); c < int32(nc); c++ {
		if used != nil && used[c>>6]>>(uint(c)&63)&1 == 0 {
			continue // no undetected fault of this class in this lane
		}
		ins := ci.ClassInputs(c)
		if len(ins) >= numIn {
			// Full detection support: the projection is the whole block.
			// Lane dedup guarantees distinct blocks hold disjoint pattern
			// sets, so two full projections can never match — skipping the
			// analysis loses nothing.
			continue
		}
		if len(ins) == 0 {
			// Empty detection support: every block's projection matches the
			// first block's, no hashing needed.
			for b := 1; b < len(ls.blocks); b++ {
				blk := &ls.blocks[b]
				if blk.skip == nil {
					blk.skip = make([]uint64, skipWords)
				}
				blk.skip[c>>6] |= 1 << (uint(c) & 63)
			}
			continue
		}
		clear(seen)
		for b := range ls.blocks {
			blk := &ls.blocks[b]
			h := uint64(14695981039346656037)
			for _, idx := range ins {
				for j := int(idx) * w; j < (int(idx)+1)*w; j++ {
					h ^= blk.inputs[j]
					h *= 1099511628211
				}
			}
			dup := false
			for _, pb := range seen[h] {
				prev := ls.blocks[pb].inputs
				same := true
				for _, idx := range ins {
					for j := int(idx) * w; j < (int(idx)+1)*w; j++ {
						if blk.inputs[j] != prev[j] {
							same = false
							break
						}
					}
					if !same {
						break
					}
				}
				if same {
					dup = true
					break
				}
			}
			if dup {
				if blk.skip == nil {
					blk.skip = make([]uint64, skipWords)
				}
				blk.skip[c>>6] |= 1 << (uint(c) & 63)
			} else {
				seen[h] = append(seen[h], int32(b))
			}
		}
	}
}

// laneClassUse returns, per lane, the set of cone classes (as a bitset)
// that contain at least one fault from the given per-lane fault lists —
// the only classes the block-skip analysis needs to consider.
func laneClassUse(ci *netlist.ConeInfo, faults []Fault, laneFaults [][][]ID) [][]uint64 {
	words := (ci.NumClasses() + 63) / 64
	var lanes int
	for _, shard := range laneFaults {
		if len(shard) > lanes {
			lanes = len(shard)
		}
	}
	out := make([][]uint64, lanes)
	for i := range out {
		out[i] = make([]uint64, words)
	}
	for _, shard := range laneFaults {
		for lane, ids := range shard {
			for _, id := range ids {
				g := faults[id].Site.Gate
				if g < 0 || int(g) >= ci.NumGatesIndexed() {
					// A corrupt fault site panics inside the worker's
					// recover during simulation; the prep stage must not
					// crash the whole process on it.
					continue
				}
				c := ci.ClassOf(g)
				out[lane][c>>6] |= 1 << (uint(c) & 63)
			}
		}
	}
	return out
}

// coneOrdering returns the campaign's fault ids sorted by fan-out cone —
// (first reachable output, cone class, id) — and the inverse rank per
// id. Faults ordered this way run consecutively over overlapping gate
// sets (warm observability memos and stamps), and the class-skip test
// resolves whole runs of neighbours together. The ordering is a property
// of the netlist and the fault list alone, so it is computed once per
// campaign; when the three key components fit, they are packed into one
// uint64 per fault and sorted without a comparison callback.
func (c *Campaign) coneOrdering() ([]ID, []int32) {
	c.coneOnce.Do(func() {
		ci := c.Module.NL.Cone()
		n := len(c.faults)
		c.coneOrder = make([]ID, n)
		c.coneRank = make([]int32, n)
		key := func(id int) (fo1 uint32, cl uint32) {
			// A corrupt site (out-of-range gate) sorts first with a zero
			// key; it still panics inside a worker's recover when
			// simulated, exactly as the reference engine does.
			if g := c.faults[id].Site.Gate; g >= 0 && int(g) < ci.NumGatesIndexed() {
				return uint32(ci.FirstOut(g) + 1), uint32(ci.ClassOf(g))
			}
			return 0, 0
		}
		nOut1 := len(c.Module.NL.Outputs) + 1
		base := ci.NumClasses() + 1
		if nPairs := nOut1 * base; nPairs <= 1<<21 && n < 1<<31 {
			// The (fo1, class) pair space is tiny next to the fault list, so
			// a stable two-pass counting sort replaces any comparison sort:
			// ids scatter in ascending order, which is exactly the
			// (first output, class, id) order the engine wants.
			pair := make([]int32, n)
			count := make([]int32, nPairs+1)
			for id, f := range c.faults {
				var p int32
				if g := f.Site.Gate; g >= 0 && int(g) < ci.NumGatesIndexed() {
					p = (ci.FirstOut(g)+1)*int32(base) + ci.ClassOf(g)
				}
				pair[id] = p
				count[p+1]++
			}
			for i := 1; i < len(count); i++ {
				count[i] += count[i-1]
			}
			for id, p := range pair {
				c.coneOrder[count[p]] = ID(id)
				count[p]++
			}
		} else {
			for id := range c.coneOrder {
				c.coneOrder[id] = ID(id)
			}
			sort.Slice(c.coneOrder, func(i, j int) bool {
				a, b := c.coneOrder[i], c.coneOrder[j]
				af, ac := key(int(a))
				bf, bc := key(int(b))
				if af != bf {
					return af < bf
				}
				if ac != bc {
					return ac < bc
				}
				return a < b
			})
		}
		for i, id := range c.coneOrder {
			c.coneRank[id] = int32(i)
		}
	})
	return c.coneOrder, c.coneRank
}

// radixSortUint64 sorts keys ascending with an LSD byte radix sort.
// Passes whose digit is constant across all keys are skipped, so keys
// that only use their low bytes pay only for those bytes. The engine
// sorts packed multi-thousand-key slices on every run (cone ordering,
// detection report), where the O(n) passes beat a comparison sort by
// roughly an order of magnitude; tiny inputs fall back to slices.Sort.
func radixSortUint64(keys []uint64) {
	n := len(keys)
	if n < 128 {
		slices.Sort(keys)
		return
	}
	src, dst := keys, make([]uint64, n)
	for shift := uint(0); shift < 64; shift += 8 {
		var count [256]int
		for _, k := range src {
			count[k>>shift&0xff]++
		}
		if count[src[0]>>shift&0xff] == n {
			continue
		}
		sum := 0
		for i, cnt := range count {
			count[i] = sum
			sum += cnt
		}
		for _, k := range src {
			d := k >> shift & 0xff
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// sortByCone orders a shard's fault ids by the campaign's cone ordering.
// Shard lists produced by partitionByLane are already in this order, so
// this only pays for externally supplied id lists (SimulateSubset). Order
// within a shard does not affect results — first detections are
// per-fault — so this is purely a locality sort.
func (c *Campaign) sortByCone(ids []ID) {
	_, rank := c.coneOrdering()
	sort.Slice(ids, func(i, j int) bool { return rank[ids[i]] < rank[ids[j]] })
}
