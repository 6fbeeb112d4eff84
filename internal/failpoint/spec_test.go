package failpoint

import (
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestParseConfigErrors pins down every spec-parse error path with a
// positioned message: an operator who fat-fingers a -failpoints flag
// must be told which fragment is wrong, not just "bad spec".
func TestParseConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring the error must carry (the offending fragment)
	}{
		{"unknown action", "frobnicate", `unknown action "frobnicate"`},
		{"unknown action with arg", "explode(now)", `unknown action "explode"`},
		{"empty action", "", `unknown action ""`},
		{"unclosed argument", "error(ENOSPC", `action "error(ENOSPC": unclosed argument`},
		{"delay requires duration", "delay", "action delay:"},
		{"delay bad duration", "delay(fast)", "action delay:"},
		{"short bad bytes", "short(many)", "action short:"},
		{"corrupt bad bit", "corrupt(x)", "action corrupt:"},
		{"drop takes no argument", "drop(3)", `action "drop" takes no argument`},
		{"dup takes no argument", "dup(1)", `action "dup" takes no argument`},
		{"reorder takes no argument", "reorder(1)", `action "reorder" takes no argument`},
		{"malformed times", "error|times=", `modifier times=""`},
		{"non-numeric times", "error|times=three", `modifier times="three"`},
		{"malformed p", "error|p=half", `modifier p="half"`},
		{"malformed after", "error|after=1.5", `modifier after="1.5"`},
		{"malformed seed", "error|seed=0x7", `modifier seed="0x7"`},
		{"malformed delay modifier", "error|delay=soon", `modifier delay="soon"`},
		{"modifier missing value", "error|times", `modifier "times": want key=value`},
		{"unknown modifier", "error|weight=2", `unknown modifier "weight"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseConfig(tc.in)
			if err == nil {
				t.Fatalf("ParseConfig(%q) accepted", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseConfig(%q) error %q does not carry %q", tc.in, err, tc.want)
			}
		})
	}
}

// TestEnableSpecErrors covers the entry-level failures ParseSet adds
// on top of ParseConfig: missing name=action shape, unregistered and
// empty site names. Every error must quote the offending entry.
func TestEnableSpecErrors(t *testing.T) {
	fp := tfp(t)
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"no equals", "justaname", `spec entry "justaname": want name=action`},
		{"empty site", "=error", `unknown failpoint ""`},
		{"blank site", "  =error", `unknown failpoint ""`},
		{"unregistered site", "no.such.site=error", `unknown failpoint "no.such.site"`},
		{"bad action positioned", fp.Name() + "=warp", `spec entry "` + fp.Name() + `=warp"`},
		{"bad modifier positioned", fp.Name() + "=error|times=x", `modifier times="x"`},
		{"later entry fails", fp.Name() + "=error,oops", `spec entry "oops"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSet(tc.in)
			if err == nil {
				t.Fatalf("ParseSet(%q) accepted", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseSet(%q) error %q does not carry %q", tc.in, err, tc.want)
			}
		})
	}
	// Whitespace and empty entries are tolerated, not errors.
	if s, err := ParseSet(" , " + fp.Name() + "=error , "); err != nil || len(s.Names()) != 1 {
		t.Fatalf("spec with blank entries rejected: %v", err)
	}
}

// TestConfigSpecRoundTrip: Spec must emit exactly what ParseConfig
// reads back, for every shape the canonical chaos schedules arm — the
// printed repro line is only useful if it re-arms the same fates.
func TestConfigSpecRoundTrip(t *testing.T) {
	cases := []Config{
		{Kind: KindError, Bit: -1},
		{Kind: KindError, Err: syscall.ENOSPC, Prob: 0.1, Seed: 7, Bit: -1},
		{Kind: KindError, After: 1, Times: 1, Seed: 71, Bit: -1},
		{Kind: KindError, Delay: time.Millisecond, Times: 3, Seed: 73, Bit: -1}, // busy reply + Retry-After hint
		{Kind: KindDelay, Delay: 3 * time.Millisecond, Prob: 0.3, Seed: 44, Bit: -1},
		{Kind: KindPanic, Msg: "boom", Times: 2, Bit: -1},
		{Kind: KindShortWrite, Bytes: 5, Times: 3, Seed: 11, Bit: -1},
		{Kind: KindCorrupt, Prob: 1, Seed: 51, Bit: -1},
		{Kind: KindCorrupt, Bit: 3},
		{Kind: KindDrop, Prob: 0.2, Seed: 41, Bit: -1},
		{Kind: KindDuplicate, Prob: 0.2, Seed: 42, Bit: -1},
		{Kind: KindReorder, Prob: 0.3, Seed: 43, Bit: -1},
	}
	for _, want := range cases {
		spec := want.Spec()
		got, err := ParseConfig(spec)
		if err != nil {
			t.Fatalf("ParseConfig(Spec(%+v) = %q): %v", want, spec, err)
		}
		// Err values compare by classification, not identity.
		if (got.Err == nil) != (want.Err == nil) ||
			got.Kind != want.Kind || got.Delay != want.Delay || got.Msg != want.Msg ||
			got.Bytes != want.Bytes || got.Bit != want.Bit || got.Prob != want.Prob ||
			got.After != want.After || got.Times != want.Times || got.Seed != want.Seed {
			t.Fatalf("round trip via %q: got %+v, want %+v", spec, got, want)
		}
	}
	if (Config{Kind: KindNone}).Spec() != "" {
		t.Fatal("KindNone must render as the empty (unarmable) spec")
	}
}

// FuzzParseConfig shakes the spec grammar: any input must either parse
// into a Config whose Spec() re-parses cleanly, or fail with an error —
// never panic, never parse into something its own rendering rejects.
func FuzzParseConfig(f *testing.F) {
	for _, seed := range []string{
		"error", "error(ENOSPC)|p=0.1|seed=7", "delay(15ms)", "panic(boom)|times=2",
		"short(5)|after=1", "corrupt(3)", "drop|p=0.2", "dup", "reorder|seed=43",
		"error|times=", "frobnicate", "delay", "drop(3)", "error|p=x",
		"error|delay=1ms", "error(msg with spaces)|p=0.5|after=1|times=2|seed=9",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		cfg, err := ParseConfig(in)
		if err != nil {
			return
		}
		spec := cfg.Spec()
		if spec == "" {
			t.Fatalf("ParseConfig(%q) accepted but Spec() is unarmable: %+v", in, cfg)
		}
		// Rendering is canonical: it must survive one more round trip,
		// unless the original carried spec delimiters inside an argument
		// (documented non-round-trippable inputs).
		if strings.ContainsAny(in, "|,()") && strings.ContainsAny(cfg.Msg+errString(cfg.Err), "|,()") {
			return
		}
		if _, err := ParseConfig(spec); err != nil {
			t.Fatalf("Spec(%+v) = %q does not re-parse: %v", cfg, spec, err)
		}
	})
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
