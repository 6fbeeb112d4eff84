package netlist

import "math/bits"

// ConeInfo caches per-gate cone metadata used by the fault simulator's
// cone-aware scheduling: for every gate, the set of primary inputs that
// can influence the detection of a fault at that gate (the input support
// of every primary output reachable from it), and the first reachable
// primary-output index (a stable key for grouping faults with overlapping
// cones). It is built once per Netlist on first use and is immutable
// afterwards, so it is safe to share across goroutines.
type ConeInfo struct {
	// Words is the uint64 width of each DetSupp row: one bit per primary
	// input, in Netlist.Inputs order.
	Words int

	detSupp  []uint64 // len(Gates)×Words rows
	firstOut []int32  // smallest reachable output index, or -1

	// Cone-equivalence classes: gates with identical detection-support
	// rows share a class. Faults in one class have detection functions
	// over the same primary-input subset, so a stimulus block whose
	// projection onto that subset repeats an earlier block's yields the
	// same detection mask for every fault in the class.
	classOf     []int32   // class id per gate
	classInputs [][]int32 // primary-input indices per class (support set)
}

// DetSupp returns the detection-support bitset of a gate: bit i is set
// when primary input i can influence some primary output reachable from
// the gate. If none of these inputs changed between two Run blocks, both
// the fault's activation and its detection mask are unchanged. The
// returned slice must not be mutated.
func (ci *ConeInfo) DetSupp(gate int32) []uint64 {
	return ci.detSupp[int(gate)*ci.Words : (int(gate)+1)*ci.Words]
}

// FirstOut returns the smallest primary-output index reachable from the
// gate, or -1 when the gate reaches no output (its faults are undetectable).
func (ci *ConeInfo) FirstOut(gate int32) int32 { return ci.firstOut[gate] }

// SupportSize returns the number of primary inputs in the gate's
// detection support.
func (ci *ConeInfo) SupportSize(gate int32) int {
	n := 0
	for _, w := range ci.DetSupp(gate) {
		n += bits.OnesCount64(w)
	}
	return n
}

// NumClasses returns the number of cone-equivalence classes.
func (ci *ConeInfo) NumClasses() int { return len(ci.classInputs) }

// NumGatesIndexed returns how many gates the cone index covers (the
// netlist's gate count at build time); callers validating externally
// supplied gate ids can bounds-check against it.
func (ci *ConeInfo) NumGatesIndexed() int { return len(ci.classOf) }

// ClassOf returns the gate's cone-equivalence class id.
func (ci *ConeInfo) ClassOf(gate int32) int32 { return ci.classOf[gate] }

// ClassInputs returns the primary-input indices (ascending) that form a
// class's detection support. The returned slice must not be mutated.
func (ci *ConeInfo) ClassInputs(class int32) []int32 { return ci.classInputs[class] }

// Cone returns the lazily built cone metadata for the netlist.
func (n *Netlist) Cone() *ConeInfo {
	n.coneOnce.Do(func() { n.cone = buildCone(n) })
	return n.cone
}

func buildCone(n *Netlist) *ConeInfo {
	ng := len(n.Gates)
	words := (len(n.Inputs) + 63) / 64
	ci := &ConeInfo{
		Words:    words,
		detSupp:  make([]uint64, ng*words),
		firstOut: make([]int32, ng),
	}

	// Forward pass over the topological order: fsupp(g) = primary inputs
	// reaching g.
	inBit := make([]int32, ng)
	for i := range inBit {
		inBit[i] = -1
	}
	for i, net := range n.Inputs {
		inBit[net] = int32(i)
	}
	fsupp := make([]uint64, ng*words)
	for _, id := range n.order {
		g := &n.Gates[id]
		row := fsupp[int(id)*words : (int(id)+1)*words]
		if b := inBit[id]; b >= 0 {
			row[b/64] |= 1 << uint(b%64)
		}
		for p := 0; p < g.NumIn(); p++ {
			src := fsupp[int(g.In[p])*words : (int(g.In[p])+1)*words]
			for w := range row {
				row[w] |= src[w]
			}
		}
	}

	// Seed outputs: a fault at output net o is observed through o itself,
	// whose value depends on fsupp(o). A net listed several times keeps the
	// smallest output index.
	for i := range ci.firstOut {
		ci.firstOut[i] = -1
	}
	for oi, o := range n.Outputs {
		row := ci.detSupp[int(o)*words : (int(o)+1)*words]
		src := fsupp[int(o)*words : (int(o)+1)*words]
		for w := range row {
			row[w] |= src[w]
		}
		if ci.firstOut[o] < 0 {
			ci.firstOut[o] = int32(oi)
		}
	}

	// Reverse topological pass: dsupp(g) ∪= dsupp(c) for every consumer c.
	// Consumers sit at strictly higher levels, so walking the order
	// backwards sees them finalized.
	for i := len(n.order) - 1; i >= 0; i-- {
		id := n.order[i]
		row := ci.detSupp[int(id)*words : (int(id)+1)*words]
		for _, c := range n.fanout[id] {
			src := ci.detSupp[int(c)*words : (int(c)+1)*words]
			for w := range row {
				row[w] |= src[w]
			}
			if fo := ci.firstOut[c]; fo >= 0 && (ci.firstOut[id] < 0 || fo < ci.firstOut[id]) {
				ci.firstOut[id] = fo
			}
		}
	}

	// Group gates by identical detection-support rows into classes:
	// hash-bucketed with exact row comparison against a representative
	// gate, so hash collisions can never merge distinct classes.
	ci.classOf = make([]int32, ng)
	byHash := map[uint64][]int32{} // row hash -> candidate class ids
	classRep := []int32{}          // representative gate per class
	for id := 0; id < ng; id++ {
		row := ci.detSupp[id*words : (id+1)*words]
		h := uint64(14695981039346656037)
		for _, w := range row {
			h ^= w
			h *= 1099511628211
		}
		class := int32(-1)
		for _, cand := range byHash[h] {
			rep := ci.detSupp[int(classRep[cand])*words : (int(classRep[cand])+1)*words]
			same := true
			for w := range row {
				if row[w] != rep[w] {
					same = false
					break
				}
			}
			if same {
				class = cand
				break
			}
		}
		if class < 0 {
			class = int32(len(classRep))
			classRep = append(classRep, int32(id))
			byHash[h] = append(byHash[h], class)
		}
		ci.classOf[id] = class
	}
	ci.classInputs = make([][]int32, len(classRep))
	for class, rep := range classRep {
		row := ci.detSupp[int(rep)*words : (int(rep)+1)*words]
		var ins []int32
		for w, v := range row {
			for v != 0 {
				b := bits.TrailingZeros64(v)
				ins = append(ins, int32(w*64+b))
				v &= v - 1
			}
		}
		ci.classInputs[class] = ins
	}
	return ci
}
