package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestTablesGolden pins the paper's evaluation artifacts at small scale,
// seed 1, byte for byte: Tables I–III, the whole-STL summary, the
// ablations and the baseline comparison, rendered exactly as cmd/tables
// prints them. The shape tests above check only trends, so without this
// file a change to the logic simulator, the reassembler or the
// orchestration could move a number silently. Wall-clock fields
// (compaction times, the baseline comparison's milliseconds) are zeroed
// before rendering: they are the only output that varies between runs
// or GOMAXPROCS settings. Regenerate with
// `go test ./internal/experiments -run TablesGolden -update` only after
// a change that is meant to move the results.
func TestTablesGolden(t *testing.T) {
	env := smallEnv(t)
	var buf bytes.Buffer

	t1, err := TableI(env)
	if err != nil {
		t.Fatal(err)
	}
	t1.Render(&buf)
	buf.WriteString("\n")

	t2, err := TableII(env)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := TableIII(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*CompactionResult{t2, t3} {
		for i := range tb.Rows {
			tb.Rows[i].CompactionTime = 0
		}
	}
	t2.Render(&buf, "TABLE II. COMPACTION RESULTS, TEST PROGRAMS FOR THE DECODER UNIT")
	buf.WriteString("\n")
	t3.Render(&buf, "TABLE III. COMPACTION RESULTS, TEST PROGRAMS FOR THE FUNCTIONAL UNITS")
	buf.WriteString("\n")

	sum, err := STLSummary(env, t2, t3)
	if err != nil {
		t.Fatal(err)
	}
	sum.Render(&buf)
	buf.WriteString("\n")

	ab, err := Ablations(env)
	if err != nil {
		t.Fatal(err)
	}
	ab.Render(&buf)
	buf.WriteString("\n")

	bc, err := BaselineCompare(env)
	if err != nil {
		t.Fatal(err)
	}
	bc.ProposedMillis, bc.BaselineMillis = 0, 0
	bc.Render(&buf)

	golden := filepath.Join("testdata", "tables_small.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got := buf.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("tables drifted from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update only if the change is meant to move the paper's numbers)",
					golden, i+1, g, w)
			}
		}
	}
}
