package failpoint

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"syscall"
	"testing"
	"time"
)

// tfp registers a uniquely named failpoint for this test binary.
func tfp(t *testing.T) *Failpoint {
	t.Helper()
	return New("test." + t.Name())
}

// armCtx returns a ctx carrying a fresh Set that arms fp with cfg.
func armCtx(t *testing.T, fp *Failpoint, cfg Config) context.Context {
	t.Helper()
	s, err := NewSet(map[string]Config{fp.Name(): cfg})
	if err != nil {
		t.Fatal(err)
	}
	return WithSet(context.Background(), s)
}

func TestDisarmedIsInert(t *testing.T) {
	fp := tfp(t)
	other, err := NewSet(map[string]Config{New("test." + t.Name() + ".other").Name(): {Kind: KindError}})
	if err != nil {
		t.Fatal(err)
	}
	// No set at all, a set arming another site, and a nil set shadowing
	// an armed one: all three leave fp disarmed.
	for _, ctx := range []context.Context{
		context.Background(),
		WithSet(context.Background(), other),
		WithSet(armCtx(t, fp, Config{Kind: KindError}), nil),
	} {
		if err := fp.Inject(ctx); err != nil {
			t.Fatalf("disarmed Inject returned %v", err)
		}
		p := []byte("payload")
		out, err := fp.InjectWrite(ctx, p)
		if err != nil || !bytes.Equal(out, p) {
			t.Fatalf("disarmed InjectWrite mutated payload: %q, %v", out, err)
		}
		if _, fired := fp.Eval(ctx); fired {
			t.Fatal("disarmed failpoint fired")
		}
	}
	// A nil handle (site compiled against an optional failpoint) is
	// inert too.
	var nilFP *Failpoint
	if nilFP.Inject(armCtx(t, fp, Config{Kind: KindError})) != nil {
		t.Fatal("nil failpoint is not inert")
	}
}

// TestSetsAreIsolated: two runs arming the same site with different
// configs each see only their own fates and counters.
func TestSetsAreIsolated(t *testing.T) {
	fp := tfp(t)
	a := armCtx(t, fp, Config{Kind: KindError, Err: ErrInjected, Times: 1})
	b := armCtx(t, fp, Config{Kind: KindPanic, After: 2})
	if err := fp.Inject(a); !errors.Is(err, ErrInjected) {
		t.Fatalf("set a: %v, want ErrInjected", err)
	}
	if err := fp.Inject(a); err != nil {
		t.Fatalf("set a fired past Times=1: %v", err)
	}
	// b's After window is untouched by a's two evaluations.
	for i := 0; i < 2; i++ {
		if out, fired := fp.Eval(b); fired {
			t.Fatalf("set b fired %s during its After window", out.Kind)
		}
	}
	if out, fired := fp.Eval(b); !fired || out.Kind != KindPanic {
		t.Fatalf("set b third evaluation = (%v, %v), want a panic", out.Kind, fired)
	}
}

func TestTriggerCounting(t *testing.T) {
	fp := tfp(t)
	ctx := armCtx(t, fp, Config{Kind: KindError, Err: ErrInjected, After: 2, Times: 3})
	var fired int
	for i := 0; i < 10; i++ {
		if err := fp.Inject(ctx); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("call %d: wrong error %v", i, err)
			}
			if i < 2 {
				t.Fatalf("fired during the After window at call %d", i)
			}
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want exactly Times=3", fired)
	}
}

func TestSeededProbabilityIsDeterministic(t *testing.T) {
	fp := tfp(t)
	fates := func(seed int64) []bool {
		ctx := armCtx(t, fp, Config{Kind: KindError, Prob: 0.4, Seed: seed})
		var out []bool
		for i := 0; i < 64; i++ {
			_, fired := fp.Eval(ctx)
			out = append(out, fired)
		}
		return out
	}
	a, b := fates(7), fates(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at evaluation %d", i)
		}
	}
	c := fates(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-roll fate sequences")
	}
}

func TestInjectDelayAndPanic(t *testing.T) {
	fp := tfp(t)
	ctx := armCtx(t, fp, Config{Kind: KindDelay, Delay: 10 * time.Millisecond, Times: 1})
	start := time.Now()
	if err := fp.Inject(ctx); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("delay did not sleep")
	}

	ctx = armCtx(t, fp, Config{Kind: KindPanic, Msg: "boom"})
	func() {
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(r.(string), "boom") {
				t.Fatalf("panic = %v, want boom", r)
			}
		}()
		fp.Inject(ctx)
		t.Fatal("panic failpoint did not panic")
	}()
}

func TestInjectWriteShortAndCorrupt(t *testing.T) {
	fp := tfp(t)
	p := []byte("0123456789")

	ctx := armCtx(t, fp, Config{Kind: KindShortWrite, Bytes: 3, Err: syscall.ENOSPC})
	out, err := fp.InjectWrite(ctx, p)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("short write error = %v, want ENOSPC", err)
	}
	if string(out) != "012" {
		t.Fatalf("kept prefix = %q, want %q", out, "012")
	}

	ctx = armCtx(t, fp, Config{Kind: KindShortWrite})
	out, err = fp.InjectWrite(ctx, p)
	if !errors.Is(err, io.ErrShortWrite) || len(out) != len(p)/2 {
		t.Fatalf("default short write = (%q, %v), want half prefix + io.ErrShortWrite", out, err)
	}

	ctx = armCtx(t, fp, Config{Kind: KindCorrupt, Bit: 1})
	out, err = fp.InjectWrite(ctx, p)
	if err != nil {
		t.Fatalf("corrupt must succeed silently, got %v", err)
	}
	if bytes.Equal(out, p) {
		t.Fatal("corrupt did not change the payload")
	}
	if out[0] != p[0]^2 {
		t.Fatalf("bit 1 flip produced %q", out)
	}
	if !bytes.Equal(p, []byte("0123456789")) {
		t.Fatal("corrupt mutated the caller's buffer instead of a copy")
	}
}

func TestEnableRejectsUnknownAndInvalid(t *testing.T) {
	if _, err := NewSet(map[string]Config{"no.such.failpoint": {Kind: KindError}}); err == nil {
		t.Fatal("unknown name accepted")
	}
	fp := tfp(t)
	if _, err := NewSet(map[string]Config{fp.Name(): {}}); err == nil {
		t.Fatal("KindNone accepted")
	}
	if _, err := NewSet(map[string]Config{fp.Name(): {Kind: KindDelay}}); err == nil {
		t.Fatal("delay without duration accepted")
	}
}

func TestRegistryListing(t *testing.T) {
	fp := tfp(t)
	found := false
	for _, n := range Names() {
		if n == fp.Name() {
			found = true
		}
	}
	if !found {
		t.Fatal("registered name missing from Names()")
	}
	s, err := NewSet(map[string]Config{fp.Name(): {Kind: KindError}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Names(); len(got) != 1 || got[0] != fp.Name() {
		t.Fatalf("set names = %v, want [%s]", got, fp.Name())
	}
	if got := (*Set)(nil).Names(); len(got) != 0 {
		t.Fatalf("nil set names = %v, want none", got)
	}
}

func TestEnableSpec(t *testing.T) {
	a, b := tfp(t), New("test."+t.Name()+".b")

	spec := a.Name() + "=error(ENOSPC)|p=0.5|seed=3|after=1|times=2, " + b.Name() + "=delay(15ms)"
	s, err := ParseSet(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Names(); len(got) != 2 {
		t.Fatalf("spec armed %v, want both failpoints", got)
	}
	ctx := WithSet(context.Background(), s)
	// The ENOSPC shorthand must produce a syscall.ENOSPC-classifiable
	// error once the trigger window opens.
	a.Eval(ctx) // consumed by after=1
	var got error
	for i := 0; i < 32 && got == nil; i++ {
		got = a.Inject(ctx)
	}
	if !errors.Is(got, syscall.ENOSPC) {
		t.Fatalf("spec error(ENOSPC) produced %v", got)
	}

	for _, bad := range []string{
		"nonsense",
		a.Name() + "=frobnicate",
		a.Name() + "=delay",
		a.Name() + "=drop(3)",
		a.Name() + "=error|p=x",
		"no.such.failpoint=error",
	} {
		if _, err := ParseSet(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

var benchFP = New("bench.disarmed")

// BenchmarkDisarmedEval documents the disarmed cost: an evaluation
// under a ctx that carries no set is one ctx.Value lookup, so leaving
// sites compiled into production paths is cheap. The ctx has the depth
// of a real call site's: a cancel and a deadline around a value.
func BenchmarkDisarmedEval(b *testing.B) {
	type key struct{}
	ctx, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, 1))
	defer cancel()
	ctx, cancel2 := context.WithTimeout(ctx, time.Hour)
	defer cancel2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, fired := benchFP.Eval(ctx); fired {
			b.Fatal("fired")
		}
	}
}
