package gpu

import (
	"errors"
	"testing"
)

func TestDivergenceStackOverflow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StackDepth = 4
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Nested divergence deeper than the stack: each level diverges inside
	// the taken arm of the previous one, so entries accumulate (1 base +
	// 2 per live divergence).
	prog := mustProg(t, `
		S2R R0, SR_LANE
		ANDI R1, R0, 1
		ISETI R2, R1, 0, EQ, P0
		SSY end1
		@P0 BRA deep1
		BRA end1
	deep1:
		ANDI R1, R0, 2
		ISETI R2, R1, 0, EQ, P1
		SSY end2
		@P1 BRA deep2
		BRA end2
	deep2:
		ANDI R1, R0, 4
		ISETI R2, R1, 0, EQ, P0
		SSY end3
		@P0 BRA deep3
		BRA end3
	deep3:
		NOP
	end3:
		NOP
	end2:
		NOP
	end1:
		EXIT
	`)
	_, err = g.Run(Kernel{Prog: prog, Blocks: 1, ThreadsPerBlock: 32})
	if err == nil {
		t.Fatal("deep divergence did not overflow a 4-entry stack")
	}
	if !errors.Is(err, ErrStack) {
		t.Fatalf("wrong error: %v", err)
	}
	// The default 32-entry stack handles the same program.
	g2, _ := New(DefaultConfig(), nil)
	if _, err := g2.Run(Kernel{Prog: prog, Blocks: 1, ThreadsPerBlock: 32}); err != nil {
		t.Fatalf("default stack failed: %v", err)
	}
}

func TestAllSpecialRegisters(t *testing.T) {
	res := run(t, `
		S2R  R0, SR_TID
		SHLI R1, R0, 2
		S2R  R2, SR_NTID
		S2R  R3, SR_CTAID
		S2R  R4, SR_WARP
		S2R  R5, SR_LANE
		IADD R6, R2, R3      ; ntid + ctaid
		SHLI R6, R6, 8
		IADD R6, R6, R4      ; + warp
		SHLI R6, R6, 8
		IADD R6, R6, R5      ; + lane
		GST  [R1+0], R6
		EXIT
	`, 64, nil)
	for tid := uint32(0); tid < 64; tid++ {
		want := ((64+0)<<8+(tid/32))<<8 + (tid % 32)
		if got := word(res, tid*4); got != want {
			t.Fatalf("thread %d packed specials = %#x, want %#x", tid, got, want)
		}
	}
}

func TestFMinFMaxF2IEdges(t *testing.T) {
	res := run(t, `
		MVI  R1, 5
		I2F  R2, R1          ; 5.0
		MVI  R3, -3
		I2F  R4, R3          ; -3.0
		FMIN R5, R2, R4      ; -3.0
		FMAX R6, R2, R4      ; 5.0
		F2I  R7, R5
		F2I  R8, R6
		MVI  R9, 0
		GST  [R9+0], R7
		GST  [R9+4], R8
		EXIT
	`, 32, nil)
	if int32(word(res, 0)) != -3 || word(res, 4) != 5 {
		t.Fatalf("fmin/fmax = %d, %d", int32(word(res, 0)), word(res, 4))
	}
}

func TestGuardSenseInverted(t *testing.T) {
	res := run(t, `
		S2R   R0, SR_TID
		SHLI  R1, R0, 2
		ISETI R9, R0, 16, LT, P0
		MVI   R2, 0
		@!P0 MVI R2, 7       ; only tid >= 16
		GST   [R1+0], R2
		EXIT
	`, 32, nil)
	for tid := uint32(0); tid < 32; tid++ {
		want := uint32(0)
		if tid >= 16 {
			want = 7
		}
		if got := word(res, tid*4); got != want {
			t.Fatalf("thread %d got %d, want %d", tid, got, want)
		}
	}
}

func TestNestedCalls(t *testing.T) {
	res := run(t, `
		S2R  R0, SR_TID
		SHLI R1, R0, 2
		MVI  R2, 1
		CAL  a
		GST  [R1+0], R2
		EXIT
	a:
		IADDI R2, R2, 10
		CAL  bfn
		IADDI R2, R2, 100
		RET
	bfn:
		IADDI R2, R2, 1000
		RET
	`, 32, nil)
	// 1 + 10 + 1000 + 100 = 1111.
	for tid := uint32(0); tid < 32; tid++ {
		if got := word(res, tid*4); got != 1111 {
			t.Fatalf("thread %d got %d, want 1111", tid, got)
		}
	}
}

func TestRETAtTopLevelEndsWarp(t *testing.T) {
	res := run(t, `
		S2R  R0, SR_TID
		SHLI R1, R0, 2
		MVI  R2, 3
		GST  [R1+0], R2
		RET                   ; top-level return == exit
		MVI  R2, 9            ; must not execute
		GST  [R1+0], R2
		EXIT
	`, 32, nil)
	for tid := uint32(0); tid < 32; tid++ {
		if got := word(res, tid*4); got != 3 {
			t.Fatalf("thread %d got %d, want 3", tid, got)
		}
	}
}

func TestFallOffProgramEnd(t *testing.T) {
	// A program without EXIT terminates when the PC runs past the end.
	res := run(t, `
		MVI R1, 8
		MVI R2, 0
		GST [R2+0], R1
	`, 32, nil)
	if word(res, 0) != 8 {
		t.Fatalf("got %d", word(res, 0))
	}
}

func TestUnalignedAddressesMasked(t *testing.T) {
	// Byte addresses are word-aligned by masking the low bits.
	res := run(t, `
		MVI R1, 42
		MVI R2, 6            ; unaligned: lands in word 1
		GST [R2+0], R1
		MVI R3, 4
		GLD R4, [R3+0]
		MVI R5, 0
		GST [R5+0], R4
		EXIT
	`, 32, nil)
	if word(res, 0) != 42 {
		t.Fatalf("unaligned store/load chain got %d", word(res, 0))
	}
}

func TestSFUWidthVariant(t *testing.T) {
	for _, sfus := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.NumSFUs = sfus
		g, err := New(cfg, nil)
		if err != nil {
			t.Fatalf("NumSFUs=%d: %v", sfus, err)
		}
		res, err := g.Run(Kernel{Prog: mustProg(t, `
			MVI R1, 4
			I2F R2, R1
			RSQ R3, R2
			F2I R4, R3        ; 0 (0.5 truncates)
			MVI R5, 0
			GST [R5+0], R3
			EXIT`), Blocks: 1, ThreadsPerBlock: 32})
		if err != nil {
			t.Fatal(err)
		}
		if res.Global.Word(0) != 0x3f000000 { // 0.5f
			t.Fatalf("NumSFUs=%d: rsq(4) = %#x", sfus, res.Global.Word(0))
		}
	}
}

func TestMemOpClassesTiming(t *testing.T) {
	// Memory instructions must cost more than ALU ones under the default
	// timing (the MEM PTP's higher cc/instr in Table I).
	alu := run(t, repeatInstr("IADD R2, R1, R1", 100), 32, nil)
	mem := run(t, repeatInstr("GST [R1+0], R2", 100), 32, nil)
	if mem.Cycles <= alu.Cycles {
		t.Fatalf("mem %d cc <= alu %d cc", mem.Cycles, alu.Cycles)
	}
}

func repeatInstr(in string, n int) string {
	src := "MVI R1, 64\n"
	for i := 0; i < n; i++ {
		src += in + "\n"
	}
	return src + "EXIT\n"
}
