package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

var publishMu sync.Mutex

// PublishExpvar registers the registry under the given expvar name so its
// live snapshot appears at /debug/vars. Repeated calls for the same name are
// no-ops (expvar.Publish panics on duplicates; this does not).
func PublishExpvar(name string, r *Registry) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// HardenedServer is the repository's one hardened http.Server constructor —
// ServeObserver and internal/server both build on it so every listening socket
// carries the same protection against stalled or malicious clients: header,
// read, write, and idle timeouts plus a header size cap. The WriteTimeout is
// generous (3 minutes) because the pprof profile/trace endpoints
// legitimately stream for a client-chosen number of seconds; it exists to
// bound abandoned connections, not to police handler latency (the serving
// layer's per-request timeout does that).
func HardenedServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      3 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

// ServeObserver starts the diagnostics endpoint of observer o on addr (e.g.
// "localhost:6060" or ":0") in a background goroutine and returns the server
// plus the bound address. It serves the registry's snapshot as JSON at
// /metrics, the flight recorder's snapshot as Chrome trace-event JSON
// (loadable in Perfetto or chrome://tracing) at /debug/traces, the process
// expvars at /debug/vars, and the net/http/pprof profiles under
// /debug/pprof/. The registry is also published to expvar as "spatialrepart"
// (first call wins), so /debug/vars carries the same snapshot. The caller
// owns shutdown; short-lived CLIs simply let the process exit take it down.
// The server is a HardenedServer, so stalled clients cannot pin connections
// (and their goroutines) forever.
func ServeObserver(addr string, o *Observer) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	r, fr := o.Registry(), o.Flight()
	PublishExpvar("spatialrepart", r)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot()) //spatialvet:ignore errdrop best-effort HTTP response write; a disconnected client is unactionable here
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = fr.WriteTrace(w) //spatialvet:ignore errdrop best-effort HTTP response write; a disconnected client is unactionable here
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := HardenedServer(mux)
	//spatialvet:ignore goroleak Serve blocks until the listener closes; the caller shuts the server down
	go func() { _ = srv.Serve(ln) }() //spatialvet:ignore errdrop Serve returns ErrServerClosed on shutdown; the caller owns the server lifecycle
	return srv, ln.Addr().String(), nil
}

// Version returns a one-line build description from the binary's embedded
// build info: module version when installed, VCS revision and dirty flag
// when built from a checkout, plus the Go toolchain version.
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown (no build info)"
	}
	var b strings.Builder
	v := bi.Main.Version
	if v == "" || v == "(devel)" {
		v = "devel"
	}
	b.WriteString(v)
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Fprintf(&b, " (%s%s)", rev, dirty)
	}
	fmt.Fprintf(&b, " %s", bi.GoVersion)
	return b.String()
}
