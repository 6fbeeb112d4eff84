package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gpustl/internal/isa"
)

// WriteReport serializes the Tracing Report of the run of prog as a text
// file, the form the paper's environment exchanges between tools: one
// line per executed warp instruction with its fetch cycle, warp
// identifier, program counter, mnemonic and raw word (see Rows),
// followed by the retire spans.
func (c *Collector) WriteReport(w io.Writer, prog []isa.Instruction) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# gpustl tracing report: %d rows, %d spans\n", len(c.Spans), len(c.Spans))
	fmt.Fprintln(bw, "# cc warp pc opcode word")
	for _, r := range Rows(c.Spans, prog) {
		fmt.Fprintf(bw, "i %d %d %d %s %016x\n", r.CC, r.Warp, r.PC, r.Op, uint64(r.Word))
	}
	fmt.Fprintln(bw, "# ccStart ccEnd warp pc")
	for _, s := range c.Spans {
		fmt.Fprintf(bw, "s %d %d %d %d\n", s.CCStart, s.CCEnd, s.Warp, s.PC)
	}
	return bw.Flush()
}

// ReadReport parses a report written by WriteReport, reconstructing the
// rows and spans (pattern streams travel separately, as VCDE files).
func ReadReport(r io.Reader) (rows []Row, spans []Span, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		switch {
		case f[0] == "i" && len(f) == 6:
			cc, err1 := strconv.ParseUint(f[1], 10, 64)
			warp, err2 := strconv.ParseInt(f[2], 10, 16)
			pc, err3 := strconv.ParseInt(f[3], 10, 32)
			op, ok := isa.OpcodeByName(f[4])
			word, err4 := strconv.ParseUint(f[5], 16, 64)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil || !ok {
				return nil, nil, fmt.Errorf("trace: report line %d malformed", line)
			}
			rows = append(rows, Row{CC: cc, Warp: int16(warp), PC: int32(pc),
				Op: op, Word: isa.Word(word)})
		case f[0] == "s" && len(f) == 5:
			s0, err1 := strconv.ParseUint(f[1], 10, 64)
			s1, err2 := strconv.ParseUint(f[2], 10, 64)
			warp, err3 := strconv.ParseInt(f[3], 10, 16)
			pc, err4 := strconv.ParseInt(f[4], 10, 32)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return nil, nil, fmt.Errorf("trace: report line %d malformed", line)
			}
			spans = append(spans, Span{CCStart: s0, CCEnd: s1,
				Warp: int16(warp), PC: int32(pc)})
		default:
			return nil, nil, fmt.Errorf("trace: report line %d: unexpected %q", line, text)
		}
	}
	return rows, spans, sc.Err()
}
