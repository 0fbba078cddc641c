package core

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"dcgn/internal/obs"
)

// debugServer is the opt-in HTTP endpoint of a job (Config.DebugAddr:
// expvar-style JSON snapshots of the job's metrics at /debug/dcgn while
// the job runs) or of a Runtime (RuntimeConfig.DebugAddr: the same plus the
// control API, runtime_http.go). The mutex makes the bound address
// readable from any goroutine — tests and tooling poll Job.DebugAddr while
// Run is in flight.
type debugServer struct {
	mu  sync.Mutex
	ln  net.Listener
	srv *http.Server
}

// debugHeaderTimeout bounds how long a connection may take to deliver its
// request headers before the server closes it, so a client that connects
// and stalls cannot hold a connection (and its goroutine) for the life of
// the job. Handlers themselves are not timed: /runtime/drain legitimately
// blocks until every job settles. A variable only so tests can shorten it.
var debugHeaderTimeout = 5 * time.Second

// serve binds addr (":0" picks a free port, readable via addr) and begins
// serving the routes on it. No-op — routes is not even called — when addr
// is empty.
func (d *debugServer) serve(addr string, routes func() *http.ServeMux) error {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dcgn: debug endpoint %q: %w", addr, err)
	}
	srv := &http.Server{Handler: routes(), ReadHeaderTimeout: debugHeaderTimeout}
	d.mu.Lock()
	d.ln, d.srv = ln, srv
	d.mu.Unlock()
	go func() { _ = srv.Serve(ln) }() // exits with ErrServerClosed on stop
	return nil
}

// stop tears the endpoint down; safe when it never started.
func (d *debugServer) stop() {
	d.mu.Lock()
	srv := d.srv
	d.ln, d.srv = nil, nil
	d.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
}

// addr reports the bound address ("host:port"), or "" when the endpoint
// is not serving.
func (d *debugServer) addr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// debugMux routes a job's live-inspection endpoint: metrics snapshots at
// /debug/dcgn and the stitched flows at /debug/dcgn/flows.
func (j *Job) debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/dcgn", obs.DebugHandler(j.metricsSnapshot))
	mux.Handle("/debug/dcgn/flows", j.flowsHandler())
	return mux
}

// DebugAddr reports the bound address of the live-inspection endpoint
// ("host:port", ready for an HTTP GET of /debug/dcgn), or "" when
// Config.DebugAddr is unset or the job is not running.
func (j *Job) DebugAddr() string { return j.debug.addr() }
