package obs

import (
	"expvar"
	"net/http"
	"net/http/pprof"
)

// NewDebugMux builds the operator endpoint a daemon serves on its
// -metrics-addr: Prometheus text on /metrics, the expvar JSON snapshot
// on /debug/vars, and the full net/http/pprof suite under /debug/pprof/.
// The registry is also published into the process expvar namespace
// under publishName (skipped when empty), so /debug/vars carries the
// same numbers a Prometheus scrape sees.
func NewDebugMux(reg *Registry, publishName string) *http.ServeMux {
	if publishName != "" {
		reg.PublishExpvar(publishName)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
