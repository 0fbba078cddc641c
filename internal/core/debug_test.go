package core

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"dcgn/internal/transport"
)

// TestDebugServerClosesStalledHeaders pins the one hardening both HTTP
// endpoints share: a client that connects and never finishes its request
// headers is cut off after debugHeaderTimeout instead of holding its
// connection for the life of the job, while a well-formed request on the
// same endpoint is still served.
func TestDebugServerClosesStalledHeaders(t *testing.T) {
	defer func(d time.Duration) { debugHeaderTimeout = d }(debugHeaderTimeout)
	debugHeaderTimeout = 50 * time.Millisecond

	var bare debugServer
	err := bare.serve("127.0.0.1:0", func() *http.ServeMux {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/dcgn", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "{}") })
		return mux
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.stop()

	cfg := runtimeConfig(transport.BackendLive, 2)
	cfg.DebugAddr = "127.0.0.1:0"
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for name, addr := range map[string]string{"debugServer": bare.addr(), "runtime": r.ControlAddr()} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer conn.Close()
		// A request line and one header, but never the blank line.
		if _, err := io.WriteString(conn, "GET /debug/dcgn HTTP/1.1\r\nHost: stall\r\n"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.ReadAll(conn); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: stalled connection still open after 10s (header timeout %v)", name, debugHeaderTimeout)
		}
		resp, err := http.Get("http://" + addr + "/debug/dcgn")
		if err != nil {
			t.Fatalf("%s: well-formed request after the stall: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: well-formed request: HTTP %d", name, resp.StatusCode)
		}
	}
	bare.stop()
	if bare.addr() != "" {
		t.Fatal("stopped endpoint still reports an address")
	}
}
