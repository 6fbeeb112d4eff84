package failpoint

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ParseSet builds a Set from a human-writable spec string, the format
// the -failpoints CLI flags accept. Entries are comma-separated:
//
//	name=action[|mod=value|...]
//
// Actions (parenthesized argument optional unless noted):
//
//	error[(msg)]    return an error; msg "ENOSPC" injects syscall.ENOSPC
//	delay(dur)      sleep a time.ParseDuration duration (required)
//	panic[(msg)]    panic
//	short[(bytes)]  torn write keeping the first bytes bytes
//	corrupt[(bit)]  flip payload bit (default: seeded random bit)
//	drop            compute, then lose the reply
//	dup             answer with a stale earlier reply
//	reorder         deliver replies out of order
//
// Modifiers: p=<float> firing probability, after=<int> skip the first
// N evaluations, times=<int> cap firings, seed=<int> RNG seed,
// delay=<dur> attach a duration to a non-delay action (e.g. the
// Retry-After hint an injected busy reply carries).
//
// Example:
//
//	journal.append.sync=error(ENOSPC)|p=0.1|seed=7,dist.reply.drop=drop|times=3
func ParseSet(spec string) (*Set, error) {
	s := &Set{sites: map[*Failpoint]*armed{}}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("failpoint: spec entry %q: want name=action", entry)
		}
		cfg, err := ParseConfig(rest)
		if err != nil {
			return nil, fmt.Errorf("failpoint: spec entry %q: %w", entry, err)
		}
		if err := s.arm(strings.TrimSpace(name), cfg); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ParseConfig parses the action[|mod=value...] part of a spec entry.
func ParseConfig(s string) (Config, error) {
	parts := strings.Split(s, "|")
	cfg, err := parseAction(strings.TrimSpace(parts[0]))
	if err != nil {
		return Config{}, err
	}
	for _, mod := range parts[1:] {
		key, val, ok := strings.Cut(strings.TrimSpace(mod), "=")
		if !ok {
			return Config{}, fmt.Errorf("modifier %q: want key=value", mod)
		}
		switch key {
		case "p":
			if cfg.Prob, err = strconv.ParseFloat(val, 64); err != nil {
				return Config{}, fmt.Errorf("modifier p=%q: %v", val, err)
			}
		case "after":
			if cfg.After, err = strconv.Atoi(val); err != nil {
				return Config{}, fmt.Errorf("modifier after=%q: %v", val, err)
			}
		case "times":
			if cfg.Times, err = strconv.Atoi(val); err != nil {
				return Config{}, fmt.Errorf("modifier times=%q: %v", val, err)
			}
		case "seed":
			if cfg.Seed, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Config{}, fmt.Errorf("modifier seed=%q: %v", val, err)
			}
		case "delay":
			if cfg.Delay, err = time.ParseDuration(val); err != nil {
				return Config{}, fmt.Errorf("modifier delay=%q: %v", val, err)
			}
		default:
			return Config{}, fmt.Errorf("unknown modifier %q", key)
		}
	}
	return cfg, nil
}

// parseAction parses "kind" or "kind(arg)".
func parseAction(s string) (Config, error) {
	kind, arg := s, ""
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return Config{}, fmt.Errorf("action %q: unclosed argument", s)
		}
		kind, arg = s[:i], s[i+1:len(s)-1]
	}
	cfg := Config{Bit: -1}
	switch kind {
	case "error":
		cfg.Kind = KindError
		if arg == "ENOSPC" {
			cfg.Err = syscall.ENOSPC
		} else if arg != "" {
			cfg.Err = errors.New(arg)
		}
	case "delay":
		cfg.Kind = KindDelay
		d, err := time.ParseDuration(arg)
		if err != nil {
			return Config{}, fmt.Errorf("action delay: %v", err)
		}
		cfg.Delay = d
	case "panic":
		cfg.Kind = KindPanic
		cfg.Msg = arg
	case "short":
		cfg.Kind = KindShortWrite
		if arg != "" {
			n, err := strconv.Atoi(arg)
			if err != nil {
				return Config{}, fmt.Errorf("action short: %v", err)
			}
			cfg.Bytes = n
		}
	case "corrupt":
		cfg.Kind = KindCorrupt
		if arg != "" {
			bit, err := strconv.Atoi(arg)
			if err != nil {
				return Config{}, fmt.Errorf("action corrupt: %v", err)
			}
			cfg.Bit = bit
		}
	case "drop":
		cfg.Kind = KindDrop
	case "dup":
		cfg.Kind = KindDuplicate
	case "reorder":
		cfg.Kind = KindReorder
	default:
		return Config{}, fmt.Errorf("unknown action %q", kind)
	}
	if arg != "" && (cfg.Kind == KindDrop || cfg.Kind == KindDuplicate || cfg.Kind == KindReorder) {
		return Config{}, fmt.Errorf("action %q takes no argument", kind)
	}
	return cfg, nil
}

// Spec renders the Config as the action[|mod=value...] fragment
// ParseConfig accepts, so a failing chaos schedule can print the exact
// `-failpoints` arming that reproduces it standalone. Error messages
// containing the spec delimiters (comma, pipe, parens) do not
// round-trip; everything the canonical schedules arm does.
func (c Config) Spec() string {
	var b strings.Builder
	switch c.Kind {
	case KindError:
		b.WriteString("error")
		if errors.Is(c.Err, syscall.ENOSPC) {
			b.WriteString("(ENOSPC)")
		} else if c.Err != nil {
			fmt.Fprintf(&b, "(%s)", c.Err)
		}
	case KindDelay:
		fmt.Fprintf(&b, "delay(%s)", c.Delay)
	case KindPanic:
		b.WriteString("panic")
		if c.Msg != "" {
			fmt.Fprintf(&b, "(%s)", c.Msg)
		}
	case KindShortWrite:
		b.WriteString("short")
		if c.Bytes > 0 {
			fmt.Fprintf(&b, "(%d)", c.Bytes)
		}
	case KindCorrupt:
		b.WriteString("corrupt")
		if c.Bit >= 0 {
			fmt.Fprintf(&b, "(%d)", c.Bit)
		}
	case KindDrop:
		b.WriteString("drop")
	case KindDuplicate:
		b.WriteString("dup")
	case KindReorder:
		b.WriteString("reorder")
	default:
		return ""
	}
	if c.Prob > 0 {
		fmt.Fprintf(&b, "|p=%g", c.Prob)
	}
	if c.After > 0 {
		fmt.Fprintf(&b, "|after=%d", c.After)
	}
	if c.Times > 0 {
		fmt.Fprintf(&b, "|times=%d", c.Times)
	}
	if c.Seed != 0 {
		fmt.Fprintf(&b, "|seed=%d", c.Seed)
	}
	if c.Delay > 0 && c.Kind != KindDelay {
		fmt.Fprintf(&b, "|delay=%s", c.Delay)
	}
	return b.String()
}
