package stl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"gpustl/internal/asm"
	"gpustl/internal/circuits"
)

// Hostile-input caps. STL files are hand-editable and may arrive over
// the network (the distributed fault-simulation transport), so the
// readers bound every unbounded-length field before allocating for it.
// Real STLs sit orders of magnitude below these; an input that exceeds
// one is malformed or malicious, and the reader says so explicitly
// instead of ballooning memory.
const (
	// MaxProgramBytes caps one PTP's assembly text.
	MaxProgramBytes = 1 << 20
	// MaxDataWords caps one PTP's input-data segment (words).
	MaxDataWords = 1 << 20
	// MaxSBCount caps one PTP's Small Block (and protected-region) list.
	MaxSBCount = 1 << 16
	// MaxPTPCount caps an STL's PTP list.
	MaxPTPCount = 4096
)

// ptpJSON is the on-disk representation of a PTP: JSON metadata with the
// program embedded as assembly text, so saved PTPs stay human-readable and
// hand-editable.
type ptpJSON struct {
	Name      string       `json:"name"`
	Target    string       `json:"target"`
	Kernel    KernelConfig `json:"kernel"`
	DataBase  uint32       `json:"dataBase,omitempty"`
	DataWords []uint32     `json:"dataWords,omitempty"`
	SBs       []SB         `json:"sbs,omitempty"`
	Protected []Region     `json:"protected,omitempty"`
	Program   string       `json:"program"`
}

// WritePTP serializes the PTP as JSON with the program as assembly text.
func WritePTP(w io.Writer, p *PTP) error {
	if err := p.Validate(); err != nil {
		return err
	}
	j := ptpJSON{
		Name:      p.Name,
		Target:    p.Target.String(),
		Kernel:    p.Kernel,
		DataBase:  p.Data.Base,
		DataWords: p.Data.Words,
		SBs:       p.SBs,
		Protected: p.Protected,
		Program:   asm.Disassemble(p.Prog),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(j)
}

// ReadPTP parses a PTP written by WritePTP.
func ReadPTP(r io.Reader) (*PTP, error) {
	var j ptpJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, fmt.Errorf("stl: decoding PTP: %w", err)
	}
	switch {
	case len(j.Program) > MaxProgramBytes:
		return nil, fmt.Errorf("stl: PTP %s: input exceeds limit: program text is %d bytes, max %d",
			j.Name, len(j.Program), MaxProgramBytes)
	case len(j.DataWords) > MaxDataWords:
		return nil, fmt.Errorf("stl: PTP %s: input exceeds limit: %d data words, max %d",
			j.Name, len(j.DataWords), MaxDataWords)
	case len(j.SBs) > MaxSBCount:
		return nil, fmt.Errorf("stl: PTP %s: input exceeds limit: %d SBs, max %d",
			j.Name, len(j.SBs), MaxSBCount)
	case len(j.Protected) > MaxSBCount:
		return nil, fmt.Errorf("stl: PTP %s: input exceeds limit: %d protected regions, max %d",
			j.Name, len(j.Protected), MaxSBCount)
	}
	target, err := circuits.ParseModuleKind(j.Target)
	if err != nil {
		return nil, fmt.Errorf("stl: unknown target module %q", j.Target)
	}
	prog, err := asm.Assemble(j.Program)
	if err != nil {
		return nil, fmt.Errorf("stl: assembling PTP %s: %w", j.Name, err)
	}
	p := &PTP{
		Name:      j.Name,
		Target:    target,
		Prog:      prog,
		Kernel:    j.Kernel,
		Data:      DataSegment{Base: j.DataBase, Words: j.DataWords},
		SBs:       j.SBs,
		Protected: j.Protected,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// stlJSON wraps an ordered list of PTPs.
type stlJSON struct {
	PTPs []json.RawMessage `json:"ptps"`
}

// WriteSTL serializes a whole STL.
func WriteSTL(w io.Writer, s *STL) error {
	var j stlJSON
	for _, p := range s.PTPs {
		var buf bytes.Buffer
		if err := WritePTP(&buf, p); err != nil {
			return err
		}
		j.PTPs = append(j.PTPs, json.RawMessage(buf.Bytes()))
	}
	enc := json.NewEncoder(w)
	return enc.Encode(j)
}

// ReadSTL parses an STL written by WriteSTL. It rejects an empty PTP
// list and duplicate PTP names: downstream consumers (checkpoints,
// reports) key PTPs by name, so both would fail confusingly later.
func ReadSTL(r io.Reader) (*STL, error) {
	var j stlJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, fmt.Errorf("stl: decoding STL: %w", err)
	}
	if len(j.PTPs) == 0 {
		return nil, fmt.Errorf("stl: STL has no PTPs")
	}
	if len(j.PTPs) > MaxPTPCount {
		return nil, fmt.Errorf("stl: input exceeds limit: %d PTPs, max %d", len(j.PTPs), MaxPTPCount)
	}
	out := &STL{}
	seen := make(map[string]int, len(j.PTPs))
	for i, raw := range j.PTPs {
		p, err := ReadPTP(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("stl: PTP %d: %w", i, err)
		}
		if prev, dup := seen[p.Name]; dup {
			return nil, fmt.Errorf("stl: duplicate PTP name %q (entries %d and %d)",
				p.Name, prev, i)
		}
		seen[p.Name] = i
		out.PTPs = append(out.PTPs, p)
	}
	return out, nil
}
