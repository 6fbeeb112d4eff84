package trace

import (
	"bytes"
	"strings"
	"testing"

	"gpustl/internal/circuits"
)

func TestReportRoundTrip(t *testing.T) {
	col := runWith(t, circuits.ModuleDU)
	prog := testProgram(t)
	var buf bytes.Buffer
	if err := col.WriteReport(&buf, prog); err != nil {
		t.Fatal(err)
	}
	backRows, backSpans, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(col.Spans, prog)
	if len(backRows) != len(rows) || len(backSpans) != len(col.Spans) {
		t.Fatalf("lengths: rows %d/%d spans %d/%d",
			len(backRows), len(rows), len(backSpans), len(col.Spans))
	}
	for i := range rows {
		if backRows[i] != rows[i] {
			t.Fatalf("row %d: %+v != %+v", i, backRows[i], rows[i])
		}
	}
	for i := range col.Spans {
		if backSpans[i] != col.Spans[i] {
			t.Fatalf("span %d: %+v != %+v", i, backSpans[i], col.Spans[i])
		}
	}
	// The round-tripped report rebuilds a working cc index.
	idx := (&Collector{Spans: backSpans}).CCToPC()
	for _, s := range col.Spans {
		if _, pc, ok := idx.Lookup(s.CCStart); !ok || pc != s.PC {
			t.Fatalf("cc index broken after round trip at cc %d", s.CCStart)
		}
	}
}

func TestReadReportErrors(t *testing.T) {
	cases := []string{
		"i 1 2",           // short row
		"i x 0 0 IADD 0",  // bad cc
		"i 1 0 0 BOGUS 0", // bad opcode
		"s 1 2 3",         // short span
		"q what",          // unknown record
	}
	for _, src := range cases {
		if _, _, err := ReadReport(strings.NewReader(src)); err == nil {
			t.Errorf("ReadReport(%q) succeeded", src)
		}
	}
}
