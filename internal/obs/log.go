package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
)

// NewLogger builds the structured logger the cmds share: slog text
// (human terminals) or JSON (log shippers) at the given level, with
// the component attached to every record so interleaved output from
// the compactor, the coordinator and the workers stays attributable.
func NewLogger(w io.Writer, component string, level slog.Level, jsonFormat bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if jsonFormat {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	l := slog.New(h)
	if component != "" {
		l = l.With("component", component)
	}
	return l
}

// Logf adapts a slog.Logger to the printf-style `Logf func(format,
// args...)` sinks the pipeline options expose (run.Options.Logf,
// dist.Options.Logf), so packages keep their dependency-free injection
// points while the cmds log structurally.
// level selects the record level; a nil logger yields a no-op sink.
func Logf(l *slog.Logger, level slog.Level) func(format string, args ...any) {
	if l == nil {
		return func(string, ...any) {}
	}
	return func(format string, args ...any) {
		l.Log(context.Background(), level, fmt.Sprintf(format, args...))
	}
}
