package gpu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// allocatedPages counts the pages of m that hold storage.
func allocatedPages(m Memory) int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// TestGlobalMemoryWrapsAround checks that addresses wrap at
// GlobalWords, for loads, stores and the data segment alike, with a
// size that leaves the last page partial.
func TestGlobalMemoryWrapsAround(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GlobalWords = 3*pageWords + 100
	words := cfg.GlobalWords
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(Kernel{
		Prog: mustProg(t, fmt.Sprintf(`
			MVI R0, 0
			MVI R1, 7
			GST [R0+%d], R1  ; word GlobalWords+2 is word 2
			GLD R2, [R0+8]
			GST [R0+16], R2
			GLD R3, [R0+%d]  ; word GlobalWords+1 is the segment's second word
			GST [R0+20], R3
			EXIT`, 4*words+8, 4*words+4)),
		Blocks:          1,
		ThreadsPerBlock: 32,
		// The data segment starts at the last word and wraps to word 0
		// and 1.
		GlobalBase: uint32(4 * (words - 1)),
		GlobalData: []uint32{5, 6, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	mem := res.Global
	for _, c := range []struct{ i, want int }{
		{words - 1, 5}, {0, 6}, {1, 9},
		{2, 7}, {words + 2, 7}, {4, 7}, {5, 9},
	} {
		if got := mem.Word(c.i); got != uint32(c.want) {
			t.Errorf("Word(%d) = %d, want %d", c.i, got, c.want)
		}
	}
	if img := mem.Image(); len(img) != words || img[words-1] != 5 || img[2] != 7 {
		t.Errorf("image: %d words, last %d, word 2 %d", len(img), img[len(img)-1], img[2])
	}
}

// TestUntouchedPageReadsZero checks that a run allocates only the pages
// it writes and that every other word reads 0.
func TestUntouchedPageReadsZero(t *testing.T) {
	res := run(t, `
		MVI R0, 0
		MVI R1, 0x55
		GST [R0+0x3000], R1  ; word 3072, page 3
		GLD R2, [R0+0x5000]  ; word 5120, page 5, never written
		GST [R0+0x3004], R2
		EXIT`, 32, nil)
	mem := res.Global
	if n := allocatedPages(mem); n != 1 {
		t.Errorf("%d pages allocated, want 1", n)
	}
	if got := mem.Word(3072); got != 0x55 {
		t.Errorf("Word(3072) = %#x, want 0x55", got)
	}
	for _, i := range []int{0, 3073, 5120, DefaultConfig().GlobalWords - 1} {
		if got := mem.Word(i); got != 0 {
			t.Errorf("Word(%d) = %#x, want 0", i, got)
		}
	}
	var zero Memory
	if zero.Word(3) != 0 || len(zero.Image()) != 0 {
		t.Error("the zero Memory is not empty")
	}
}

// TestMemoryImageMatchesFlat holds Memory to a flat slice under the same
// random stores, including wrapped indices.
func TestMemoryImageMatchesFlat(t *testing.T) {
	const words = 5*pageWords + 7
	rng := rand.New(rand.NewSource(1))
	mem := newMemory(words)
	flat := make([]uint32, words)
	for n := 0; n < 2000; n++ {
		i := rng.Intn(3 * words)
		if n%2 == 0 {
			i = rng.Intn(pageWords) + 2*pageWords // cluster in one page
		}
		v := rng.Uint32()
		mem.store(i, v)
		flat[i%words] = v
	}
	if !slices.Equal(mem.Image(), flat) {
		t.Fatal("Image differs from the flat memory")
	}
	for i := range 3 * words {
		if mem.Word(i) != flat[i%words] {
			t.Fatalf("Word(%d) = %#x, want %#x", i, mem.Word(i), flat[i%words])
		}
	}
}

// TestConstantDataTruncatedAtSize checks that constant data beyond
// ConstantWords is dropped rather than wrapped over word 0, while loads
// still wrap.
func TestConstantDataTruncatedAtSize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ConstantWords = 2
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(Kernel{
		Prog: mustProg(t, `
			S2R  R0, SR_TID
			SHLI R1, R0, 2
			LDC  R2, [R1+0]
			GST  [R1+0], R2
			EXIT`),
		Blocks: 1, ThreadsPerBlock: 32,
		ConstantData: []uint32{7, 8, 9, 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	for tid, want := range []uint32{7, 8, 7, 8} {
		if got := res.Global.Word(tid); got != want {
			t.Errorf("thread %d loaded %d, want %d", tid, got, want)
		}
	}
}
