package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// DebugServer is the optional observability HTTP listener:
//
//	/metrics       Prometheus text exposition of the registry (plus
//	               the federated fleet:: view when a Federator is
//	               attached)
//	/metrics.fed   federation wire snapshot (full histogram buckets) —
//	               what a coordinator's Federator scrapes
//	/traces        JSON dump of the tracer's retained traces;
//	               ?n= bounds the count, ?terminal= filters by status
//	/traces/fleet  cross-node stitched traces (Federator-attached
//	               listeners only)
//	/debug/vars    expvar (memstats, cmdline)
//	/debug/pprof/  pprof index, plus profile/heap/trace endpoints
//
// It binds its own mux — nothing leaks onto http.DefaultServeMux — so
// embedding processes keep full control of their public surface while
// `curl :PORT/metrics` and `go tool pprof http://:PORT/debug/pprof/…`
// work against the debug port.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// DebugOption customises a debug listener.
type DebugOption func(*debugConfig)

type debugConfig struct {
	fed *Federator
}

// WithFederator attaches a fleet federator: /metrics additionally
// exports the fleet:: view and /traces/fleet serves cross-node
// stitched traces. This is how the coordinator's listener differs
// from a node's.
func WithFederator(f *Federator) DebugOption {
	return func(c *debugConfig) { c.fed = f }
}

// maxTraceDump bounds how many traces a single /traces request may ask
// for — well above any retention ring, it just rejects nonsense.
const maxTraceDump = 10000

// traceQueryParams validates /traces' ?n= and ?terminal= params.
// n must be a positive integer ≤ maxTraceDump; terminal must be a
// short plain token (letters, digits, '-', '_').
func traceQueryParams(r *http.Request) (n int, terminal string, err error) {
	q := r.URL.Query()
	if raw := q.Get("n"); raw != "" {
		n, err = strconv.Atoi(raw)
		if err != nil || n < 1 || n > maxTraceDump {
			return 0, "", fmt.Errorf("n must be an integer in [1, %d]", maxTraceDump)
		}
	}
	terminal = q.Get("terminal")
	if len(terminal) > 64 {
		return 0, "", fmt.Errorf("terminal is too long")
	}
	for _, c := range terminal {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return 0, "", fmt.Errorf("terminal may contain only letters, digits, '-' and '_'")
		}
	}
	return n, terminal, nil
}

// ListenDebug starts a debug listener on addr (e.g. "127.0.0.1:0").
// reg and tracer may be nil; their endpoints then serve empty
// documents.
func ListenDebug(addr string, reg *Registry, tracer *Tracer, opts ...DebugOption) (*DebugServer, error) {
	var cfg debugConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			_ = reg.WritePrometheus(w)
		}
		if cfg.fed != nil {
			_ = cfg.fed.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/metrics.fed", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := FedSnapshot{}
		if reg != nil {
			snap = reg.Snapshot().Fed()
		}
		_ = json.NewEncoder(w).Encode(snap)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		n, terminal, err := traceQueryParams(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(tracer.DumpFiltered(n, terminal))
	})
	if cfg.fed != nil {
		mux.HandleFunc("/traces/fleet", func(w http.ResponseWriter, r *http.Request) {
			n, terminal, err := traceQueryParams(r)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(cfg.fed.FleetTraces(n, terminal))
		})
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	d := &DebugServer{
		ln:  ln,
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = d.srv.Serve(ln) }()
	return d, nil
}

// Addr returns the listener's address (host:port).
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close shuts the listener down immediately.
func (d *DebugServer) Close() error { return d.srv.Close() }
