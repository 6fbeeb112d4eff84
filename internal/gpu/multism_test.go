package gpu

import "testing"

const multiSMProg = `
	S2R   R0, SR_TID
	S2R   R2, SR_CTAID
	IMULI R3, R2, 128
	SHLI  R1, R0, 2
	IADD  R1, R1, R3
	IMAD  R4, R2, R0
	IADDI R4, R4, 3
	GST   [R1+0], R4
	EXIT
`

func TestMultiSMSameResults(t *testing.T) {
	// The same grid must produce identical memory whatever the SM count.
	var ref []uint32
	for _, sms := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.NumSMs = sms
		g, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Run(Kernel{Prog: mustProg(t, multiSMProg), Blocks: 8, ThreadsPerBlock: 32})
		if err != nil {
			t.Fatal(err)
		}
		out := res.Global.Image()[:8*32]
		if ref == nil {
			ref = append([]uint32(nil), out...)
			continue
		}
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("NumSMs=%d: word %d = %d, want %d", sms, i, out[i], ref[i])
			}
		}
	}
}

func TestMultiSMCyclesScale(t *testing.T) {
	// With B blocks over S SMs, the makespan is ~B/S of the 1-SM run.
	run := func(sms int) uint64 {
		cfg := DefaultConfig()
		cfg.NumSMs = sms
		g, _ := New(cfg, nil)
		res, err := g.Run(Kernel{Prog: mustProg(t, multiSMProg), Blocks: 8, ThreadsPerBlock: 32})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	c1, c4 := run(1), run(4)
	if c4 >= c1 {
		t.Fatalf("4 SMs not faster: %d vs %d", c4, c1)
	}
	ratio := float64(c1) / float64(c4)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("speedup = %.2f, want ~4", ratio)
	}
}

func TestMultiSMMonitorSeesSM0Only(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSMs = 4
	mon := &traceCollector{}
	g, _ := New(cfg, mon)
	res, err := g.Run(Kernel{Prog: mustProg(t, multiSMProg), Blocks: 8, ThreadsPerBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	// 8 blocks over 4 SMs: SM 0 runs blocks 0 and 4 -> 2 x 9 fetches.
	if mon.fetches != 2*9 {
		t.Errorf("monitor saw %d fetches, want %d (SM 0's two blocks)", mon.fetches, 18)
	}
	if res.Instructions != 8*9 {
		t.Errorf("dynamic instructions = %d, want %d", res.Instructions, 72)
	}
}

func TestMultiSMConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSMs = -1
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("negative NumSMs accepted")
	}
}
