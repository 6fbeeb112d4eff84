package fault

import (
	"slices"
	"sort"

	"gpustl/internal/circuits"
	"gpustl/internal/netlist"
)

// AutoBlockWords picks the evaluator block width, in 64-pattern machine
// words, for a run whose longest lane stream holds the given number of
// patterns: the narrowest width of the supported sweep set {1, 4, 8, 16}
// whose single block still covers the stream. Wider blocks amortize the
// per-fault visit cost (site delta, observability memo, skip
// bookkeeping) over more patterns, but cost proportionally more per
// good-circuit sweep — so there is no point going wider than the
// stream.
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
// a lane's stream: the packed input vectors Evaluator.Run consumes, the
// global stream index of each slot, and the per-cone-class skip set.
// Blocks are built once per run and shared read-only across shards,
// hoisting the per-shard input clearing and re-packing out of the hot
// loop entirely.
type blockStim struct {
	inputs []uint64 // W packed words per primary input, input-major
	gidx   []int32  // global stream index per slot
	// skip is a bitset over cone-equivalence classes: bit c set when this
	// block's projection onto class c's detection support is identical to
	// an earlier block's. A fault of class c still undetected here was
	// undetected on that earlier block under the same effective stimulus,
	// so its detection mask is a known zero and the whole evaluation can
	// be skipped. nil on the first block and for classes never marked.
	skip []uint64
}

// laneStream is one lane's pre-packed pattern stream.
type laneStream struct {
	blocks []blockStim
}

// buildLaneStreams packs the per-lane streams of one simulation run:
// laneIdx[lane] lists the lane's global stream indices in application
// order. The stream is expected to hold each (lane, input vector) once,
// as trace.Collector produces it; a repeat costs a slot and nothing
// else, since its earlier twin detects first.
//
// classUsed[lane] restricts the block-level skip analysis to cone
// classes that actually contain undetected faults in that lane; nil
// analyses every class.
//
// reqWords fixes the block width in 64-pattern words; 0 lets
// AutoBlockWords pick it from the longest lane stream. The chosen width
// is returned alongside the streams so the caller can build matching
// evaluators.
func buildLaneStreams(nl *netlist.Netlist, stream []TimedPattern, laneIdx [][]int32,
	classUsed [][]uint64, reqWords int) ([]laneStream, int) {

	w := reqWords
	if w <= 0 {
		longest := 0
		for _, idxs := range laneIdx {
			longest = max(longest, len(idxs))
		}
		w = AutoBlockWords(longest)
	}

	// Pack each lane's stream into 64×w-pattern blocks, one 64-pattern
	// transpose per word. Bit order equals stream order — pattern s of a
	// block sits at word s/64, bit s%64 — so the earliest set bit of any
	// detection mask is the earliest pattern at every width.
	numIn := len(nl.Inputs)
	lanes := make([]laneStream, len(laneIdx))
	bp := 64 * w
	var word [64]circuits.Pattern
	for lane, idxs := range laneIdx {
		if len(idxs) == 0 {
			continue
		}
		ls := &lanes[lane]
		ls.blocks = make([]blockStim, 0, (len(idxs)+bp-1)/bp)
		for base := 0; base < len(idxs); base += bp {
			end := min(base+bp, len(idxs))
			blk := blockStim{
				inputs: make([]uint64, numIn*w),
				gidx:   idxs[base:end:end],
			}
			for wd := 0; base+wd*64 < end; wd++ {
				lo := base + wd*64
				hi := min(lo+64, end)
				for s, gi := range idxs[lo:hi] {
					word[s] = stream[gi].Pat
				}
				circuits.PackPatternsAt(word[:hi-lo], blk.inputs, numIn, w, wd)
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
			// A unique stream's blocks hold disjoint pattern sets, so two
			// full projections never match — skipping the analysis loses
			// nothing.
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
// (first reachable output, cone class, id). Faults ordered this way run
// consecutively over overlapping gate sets (warm observability memos and
// stamps), and the class-skip test resolves whole runs of neighbours
// together. The ordering is a property of the netlist and the fault list
// alone, so it is computed once per campaign; when the three key
// components fit, they are packed into one uint64 per fault and sorted
// without a comparison callback.
func (c *Campaign) coneOrdering() []ID {
	c.coneOnce.Do(func() {
		ci := c.Module.NL.Cone()
		n := len(c.faults)
		c.coneOrder = make([]ID, n)
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
	})
	return c.coneOrder
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
