// Package vcde reads and writes test-pattern files in a VCDE-like text
// format — the interchange format between the logic-tracing stage and the
// fault injector, mirroring the paper's use of VCDE files to carry the
// extracted test patterns of the target modules.
//
// The format is line-oriented:
//
//	VCDE 1
//	module SP lanes 8 inputs 103
//	p <cc> <lane> <warp> <pc> <w0-hex> <w1-hex>
//	...
//	end
//
// Lines starting with '#' are comments.
package vcde

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
)

// Header describes the pattern stream.
type Header struct {
	Module circuits.ModuleKind
	Lanes  int
	Inputs int
}

// Write serializes a pattern stream.
func Write(w io.Writer, h Header, patterns []fault.TimedPattern) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "VCDE 1")
	fmt.Fprintf(bw, "module %s lanes %d inputs %d\n", h.Module, h.Lanes, h.Inputs)
	for _, p := range patterns {
		fmt.Fprintf(bw, "p %d %d %d %d %x %x\n",
			p.CC, p.Lane, p.Warp, p.PC, p.Pat.W[0], p.Pat.W[1])
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// Read parses a pattern stream written by Write.
func Read(r io.Reader) (Header, []fault.TimedPattern, error) {
	var h Header
	var pats []fault.TimedPattern
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	sawMagic, sawEnd := false, false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		switch {
		case !sawMagic:
			if text != "VCDE 1" {
				return h, nil, fmt.Errorf("vcde: line %d: bad magic %q", line, text)
			}
			sawMagic = true

		case strings.HasPrefix(text, "module "):
			f := strings.Fields(text)
			if len(f) != 6 || f[2] != "lanes" || f[4] != "inputs" {
				return h, nil, fmt.Errorf("vcde: line %d: bad module header", line)
			}
			mk, err := circuits.ParseModuleKind(f[1])
			if err != nil {
				return h, nil, fmt.Errorf("vcde: line %d: %v", line, err)
			}
			h.Module = mk
			if h.Lanes, err = strconv.Atoi(f[3]); err != nil {
				return h, nil, fmt.Errorf("vcde: line %d: bad lanes", line)
			}
			if h.Inputs, err = strconv.Atoi(f[5]); err != nil {
				return h, nil, fmt.Errorf("vcde: line %d: bad inputs", line)
			}

		case strings.HasPrefix(text, "p "):
			f := strings.Fields(text)
			if len(f) != 7 {
				return h, nil, fmt.Errorf("vcde: line %d: bad pattern line", line)
			}
			var p fault.TimedPattern
			cc, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				return h, nil, fmt.Errorf("vcde: line %d: bad cc", line)
			}
			p.CC = cc
			lane, err := strconv.ParseInt(f[2], 10, 16)
			if err != nil {
				return h, nil, fmt.Errorf("vcde: line %d: bad lane", line)
			}
			p.Lane = int16(lane)
			warp, err := strconv.ParseInt(f[3], 10, 16)
			if err != nil {
				return h, nil, fmt.Errorf("vcde: line %d: bad warp", line)
			}
			p.Warp = int16(warp)
			pc, err := strconv.ParseInt(f[4], 10, 32)
			if err != nil {
				return h, nil, fmt.Errorf("vcde: line %d: bad pc", line)
			}
			p.PC = int32(pc)
			if p.Pat.W[0], err = strconv.ParseUint(f[5], 16, 64); err != nil {
				return h, nil, fmt.Errorf("vcde: line %d: bad w0", line)
			}
			if p.Pat.W[1], err = strconv.ParseUint(f[6], 16, 64); err != nil {
				return h, nil, fmt.Errorf("vcde: line %d: bad w1", line)
			}
			pats = append(pats, p)

		case text == "end":
			sawEnd = true

		default:
			return h, nil, fmt.Errorf("vcde: line %d: unexpected %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return h, nil, err
	}
	if !sawMagic {
		return h, nil, fmt.Errorf("vcde: missing magic")
	}
	if !sawEnd {
		return h, nil, fmt.Errorf("vcde: missing end marker")
	}
	return h, pats, nil
}
