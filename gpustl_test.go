package gpustl

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestFacadeEndToEnd exercises the public API the way the README's
// quickstart does: build a module, generate a PTP, compact it, and check
// the result.
func TestFacadeEndToEnd(t *testing.T) {
	mod, err := BuildModule(ModuleDU)
	if err != nil {
		t.Fatal(err)
	}
	faults := SampleFaults(mod, 2000, 1)
	if len(faults) != 2000 {
		t.Fatalf("sampled %d faults", len(faults))
	}
	comp := NewCompactor(DefaultGPUConfig(), mod, faults, CompactorOptions{})
	res, err := comp.CompactPTP(GenerateIMM(40, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.SizeReduction() <= 0 {
		t.Errorf("no compaction: %.2f%%", res.SizeReduction())
	}
}

func TestFacadeAssembler(t *testing.T) {
	prog, err := Assemble("MVI R1, 42\nGST [R0+0], R1\nEXIT")
	if err != nil {
		t.Fatal(err)
	}
	text := Disassemble(prog)
	if !strings.Contains(text, "MVI R1, 42") {
		t.Errorf("disassembly: %q", text)
	}
	g, err := NewGPU(DefaultGPUConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.Run(Kernel{Prog: prog, Blocks: 1, ThreadsPerBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	if out.Global.Word(0) != 42 {
		t.Errorf("kernel stored %d", out.Global.Word(0))
	}
}

func TestFacadeATPGAndConvert(t *testing.T) {
	mod, err := BuildModule(ModuleSP)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultATPGOptions(1)
	opt.SampleFaults = 600
	opt.UsePodem = false
	res := GenerateATPG(mod, opt)
	if len(res.Patterns) == 0 {
		t.Fatal("no ATPG patterns")
	}
	ptp, _ := ConvertTPGEN(res, 1)
	if len(ptp.Prog) == 0 {
		t.Fatal("empty TPGEN")
	}
}

func TestFacadeSignature(t *testing.T) {
	if SignatureFold(0, 5) != 5 {
		t.Error("fold")
	}
	m := NewMISR(1, 0)
	m.Update(2)
	if m.Value() == 1 {
		t.Error("MISR did not advance")
	}
}

func TestFacadeWholeSTL(t *testing.T) {
	lib := &STL{PTPs: []*PTP{
		GenerateIMM(15, 1),
		GenerateDIVG(3, 1, 2),
	}}
	ms, err := NewModuleSet(lib, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompactWholeSTLResilient(context.Background(), DefaultGPUConfig(), ms, lib,
		CompactorOptions{}, RunnerOptions{FCTolerance: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Excluded != 1 || res.SizeReduction() <= 0 {
		t.Fatalf("excluded=%d reduction=%.2f", res.Excluded, res.SizeReduction())
	}
}

func TestFacadeVCDE(t *testing.T) {
	var buf bytes.Buffer
	h := VCDEHeader{Module: ModuleSP, Lanes: 8, Inputs: 103}
	if err := WriteVCDE(&buf, h, nil); err != nil {
		t.Fatal(err)
	}
	h2, pats, err := ReadVCDE(&buf)
	if err != nil || h2 != h || len(pats) != 0 {
		t.Fatalf("round trip: %+v %d %v", h2, len(pats), err)
	}
}

// TestReadSTLMalformed drives ReadSTL through the broken inputs an
// operator can plausibly produce — a truncated file, an unknown target
// module, an empty library, duplicate PTP names — and demands a
// descriptive error for each, never a panic.
func TestReadSTLMalformed(t *testing.T) {
	valid := `{"name":"x","target":"DU","kernel":{"Blocks":1,"ThreadsPerBlock":32},"program":"EXIT"}`
	cases := []struct {
		name, src, want string
	}{
		{"empty input", "", "decoding STL"},
		{"truncated JSON", `{"ptps":[{"name":"x","tar`, "decoding STL"},
		{"unknown module kind", `{"ptps":[{"name":"x","target":"GX9","kernel":{"Blocks":1,"ThreadsPerBlock":32},"program":"EXIT"}]}`, "unknown target module"},
		{"PIPE target", `{"ptps":[{"name":"x","target":"PIPE","kernel":{"Blocks":1,"ThreadsPerBlock":32},"program":"EXIT"}]}`, "unknown target module"},
		{"empty PTP list", `{"ptps":[]}`, "no PTPs"},
		{"missing ptps key", `{}`, "no PTPs"},
		{"duplicate PTP names", `{"ptps":[` + valid + `,` + valid + `]}`, "duplicate PTP name"},
	}
	for _, tc := range cases {
		_, err := ReadSTL(strings.NewReader(tc.src))
		if err == nil {
			t.Errorf("%s: ReadSTL succeeded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// The valid single-PTP library still loads.
	lib, err := ReadSTL(strings.NewReader(`{"ptps":[` + valid + `]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.PTPs) != 1 || lib.PTPs[0].Name != "x" {
		t.Fatalf("library: %+v", lib.PTPs)
	}
}
