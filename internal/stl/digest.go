package stl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"gpustl/internal/asm"
)

// Digest fingerprints a PTP: the hex sha256 of a fixed-width binary
// encoding of exactly what WritePTP serializes — name, target, kernel,
// data base, data words, SBs, protected regions and program. Every
// variable-length field is length-prefixed, so no two PTPs frame to the
// same bytes. Instructions are hashed in asm.Canonical form, the
// operands their assembly text carries, so the digest is a function of
// the serialized PTP: Digest(p) == Digest(ReadPTP(WritePTP(p))). An
// invalid PTP fails as WritePTP fails.
func Digest(p *PTP) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	target := p.Target.String()
	b := make([]byte, 0, 64+len(p.Name)+len(target)+
		4*len(p.Data.Words)+40*len(p.SBs)+16*len(p.Protected)+12*len(p.Prog))
	le := binary.LittleEndian
	putInt := func(v int) { b = le.AppendUint64(b, uint64(v)) }
	putStr := func(s string) { putInt(len(s)); b = append(b, s...) }

	putStr(p.Name)
	putStr(target)
	putInt(p.Kernel.Blocks)
	putInt(p.Kernel.ThreadsPerBlock)
	b = le.AppendUint32(b, p.Data.Base)
	putInt(len(p.Data.Words))
	for _, w := range p.Data.Words {
		b = le.AppendUint32(b, w)
	}
	putInt(len(p.SBs))
	for _, sb := range p.SBs {
		putInt(sb.Start)
		putInt(sb.End)
		putInt(sb.DataOff)
		putInt(sb.DataLen)
		putInt(sb.AddrInstr)
	}
	putInt(len(p.Protected))
	for _, r := range p.Protected {
		putInt(r.Start)
		putInt(r.End)
	}
	putInt(len(p.Prog))
	for _, in := range p.Prog {
		c := asm.Canonical(in)
		var sense byte
		if c.PSense {
			sense = 1
		}
		b = append(b, byte(c.Op), c.Rd, c.Ra, c.Rb, byte(c.Cond), c.Pd, c.Pg, sense)
		b = le.AppendUint32(b, uint32(c.Imm))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
