package telemetry

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// startOps boots a real listener on a loopback ephemeral port; the ops
// endpoint is meant to be scraped over TCP, so the tests exercise the
// whole path.
func startOps(t *testing.T, cfg OpsConfig) *OpsServer {
	t.Helper()
	srv, err := ServeOps("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func get(t *testing.T, srv *OpsServer, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestOpsEndpointRoutes(t *testing.T) {
	s := New(nil, 64)
	s.Eval(1, "mon", 7, false)
	s.HookFire(2, "io_complete", 1)
	srv := startOps(t, OpsConfig{
		Sink: func() *Sink { return s },
		Why: func(monitor string, n int) (any, error) {
			if monitor == "boom" {
				return nil, errors.New("kaput")
			}
			return []map[string]any{{"monitor": monitor, "n": n}}, nil
		},
	})

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{"guardrails_evals_total 1", "guardrails_violations_total 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, srv, "/snapshot.json")
	if code != http.StatusOK {
		t.Fatalf("/snapshot.json = %d", code)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot.json not JSON: %v", err)
	}

	code, body = get(t, srv, "/flight")
	if code != http.StatusOK {
		t.Fatalf("/flight = %d", code)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/flight not JSON: %v", err)
	}
	if len(events) != 3 { // eval + violation + hook fire
		t.Errorf("/flight events = %d, want 3", len(events))
	}

	code, body = get(t, srv, "/why?monitor=mon&n=2")
	if code != http.StatusOK {
		t.Fatalf("/why = %d: %s", code, body)
	}
	if !strings.Contains(body, `"monitor": "mon"`) || !strings.Contains(body, `"n": 2`) {
		t.Errorf("/why body = %s", body)
	}
	if code, _ = get(t, srv, "/why"); code != http.StatusBadRequest {
		t.Errorf("/why without monitor = %d, want 400", code)
	}
	if code, _ = get(t, srv, "/why?monitor=mon&n=-1"); code != http.StatusBadRequest {
		t.Errorf("/why with bad n = %d, want 400", code)
	}
	if code, _ = get(t, srv, "/why?monitor=boom"); code != http.StatusInternalServerError {
		t.Errorf("/why with erroring callback = %d, want 500", code)
	}

	code, body = get(t, srv, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
}

func TestOpsEndpointNilConfig(t *testing.T) {
	// A bare config must still serve every route: empty exports, 404 for
	// /why, and a live /healthz.
	srv := startOps(t, OpsConfig{})
	if code, _ := get(t, srv, "/metrics"); code != http.StatusOK {
		t.Errorf("/metrics on nil sink = %d", code)
	}
	code, body := get(t, srv, "/flight")
	if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Errorf("/flight on nil sink = %d %q", code, body)
	}
	if code, _ = get(t, srv, "/why?monitor=x"); code != http.StatusNotFound {
		t.Errorf("/why without provenance = %d, want 404", code)
	}
	code, body = get(t, srv, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
}

// TestOpsEndpointDropsStalledRequest opens a raw connection, sends half
// a request line and stops: the server must hang up once the header
// timeout passes instead of holding the connection for good.
func TestOpsEndpointDropsStalledRequest(t *testing.T) {
	srv := startOps(t, OpsConfig{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metr"); err != nil {
		t.Fatal(err)
	}
	// A margin past the timeout for a loaded machine; the read fails
	// with a deadline error only if the server never hangs up.
	if err := conn.SetReadDeadline(time.Now().Add(opsReadHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server still holds a stalled connection after %v", time.Since(start))
	}
	if waited := time.Since(start); waited < opsReadHeaderTimeout/2 {
		t.Errorf("connection closed after %v, before the %v header timeout", waited, opsReadHeaderTimeout)
	}
}
