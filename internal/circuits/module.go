package circuits

import (
	"fmt"

	"gpustl/internal/netlist"
)

// ModuleKind identifies one of the GPU modules targeted by the STL.
type ModuleKind uint8

// The three target modules of the paper's experiments, plus the FP32 unit
// (part of the described SM; not targeted by the paper's STL).
const (
	ModuleDU   ModuleKind = iota // instruction Decoder Unit
	ModuleSP                     // SP core integer datapath (8 lanes)
	ModuleSFU                    // Special Function Unit datapath (2 lanes)
	ModuleFP32                   // FP32 floating-point datapath (8 lanes)
	moduleKinds
)

// NumModuleKinds is the number of defined module kinds.
const NumModuleKinds = int(moduleKinds)

// String returns the module's short name.
func (k ModuleKind) String() string {
	switch k {
	case ModuleDU:
		return "DU"
	case ModuleSP:
		return "SP"
	case ModuleSFU:
		return "SFU"
	case ModuleFP32:
		return "FP32"
	}
	return fmt.Sprintf("ModuleKind(%d)", uint8(k))
}

// ParseModuleKind returns the kind whose String is name.
func ParseModuleKind(name string) (ModuleKind, error) {
	for k := ModuleKind(0); k < moduleKinds; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown module %q", name)
}

// Module pairs a gate-level netlist with its place in the SM.
type Module struct {
	Kind  ModuleKind
	NL    *netlist.Netlist
	Lanes int // identical instances in the SM (DU: 1, SP: 8, SFU: 2)
}

// Build constructs the module of the given kind with the given lane count
// (0 selects the FlexGripPlus default: 1 DU, 8 SPs, 2 SFUs).
func Build(kind ModuleKind, lanes int) (*Module, error) {
	switch kind {
	case ModuleDU:
		if lanes == 0 {
			lanes = 1
		}
		nl, err := BuildDU()
		if err != nil {
			return nil, err
		}
		return &Module{Kind: kind, NL: nl, Lanes: lanes}, nil
	case ModuleSP:
		if lanes == 0 {
			lanes = 8
		}
		nl, err := BuildSP()
		if err != nil {
			return nil, err
		}
		return &Module{Kind: kind, NL: nl, Lanes: lanes}, nil
	case ModuleSFU:
		if lanes == 0 {
			lanes = 2
		}
		nl, err := BuildSFU()
		if err != nil {
			return nil, err
		}
		return &Module{Kind: kind, NL: nl, Lanes: lanes}, nil
	case ModuleFP32:
		if lanes == 0 {
			lanes = 8
		}
		nl, err := BuildFP32()
		if err != nil {
			return nil, err
		}
		return &Module{Kind: kind, NL: nl, Lanes: lanes}, nil
	}
	return nil, fmt.Errorf("circuits: unknown module kind %d", kind)
}

// Pattern is one test pattern for a module: the values applied to its
// primary inputs on one clock cycle, packed LSB-first into two words
// (every module has at most 128 inputs).
type Pattern struct {
	W [2]uint64
}

// Bit returns input bit i of the pattern.
func (p Pattern) Bit(i int) bool { return p.W[i/64]>>(uint(i)%64)&1 == 1 }

// ApplyTo ORs the pattern's bits into the packed 64-way input vectors at
// bit position slot. dst must have one entry per module input.
func (p Pattern) ApplyTo(dst []uint64, slot uint) {
	bit := uint64(1) << slot
	for i := range dst {
		if p.W[i>>6]>>(uint(i)&63)&1 == 1 {
			dst[i] |= bit
		}
	}
}

// Bools expands the pattern into one bool per module input.
func (p Pattern) Bools(numInputs int) []bool {
	out := make([]bool, numInputs)
	for i := range out {
		out[i] = p.Bit(i)
	}
	return out
}

// DecodeSPPattern unpacks an SP pattern into its raw fields. Fn and cond
// are returned unvalidated (ATPG may produce encodings outside the legal
// instruction set; the pattern-to-instruction parser rejects those).
func DecodeSPPattern(p Pattern) (fnRaw, condRaw uint8, a, b, c uint32) {
	a = uint32(p.W[0])
	b = uint32(p.W[0] >> 32)
	c = uint32(p.W[1])
	fnRaw = uint8(p.W[1] >> 32 & 0xf)
	condRaw = uint8(p.W[1] >> 36 & 0x7)
	return fnRaw, condRaw, a, b, c
}

// DecodeSFUPattern unpacks an SFU pattern into its raw fields.
func DecodeSFUPattern(p Pattern) (fnRaw uint8, a uint32) {
	return uint8(p.W[0] >> 32 & 0x7), uint32(p.W[0])
}

// DecodeDUPattern unpacks a DU pattern.
func DecodeDUPattern(p Pattern) (word uint64, pc uint32) {
	return p.W[0], uint32(p.W[1]) & (1<<duPCWidth - 1)
}
