package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"
)

// OpsConfig wires the live ops endpoint. The Sink callback is
// consulted per request, so the endpoint serves whatever sink is
// attached at scrape time; Why serves decision-provenance queries
// (wired by the caller so this package needs no provenance
// dependency). Nil callbacks disable their routes' content (/metrics
// and /snapshot.json serve the nil sink's empty exports, /why serves
// 404). Requests run on the server's goroutines and read the sink and
// recorder without a lock, so serve them once the kernel they observe
// has stopped firing.
type OpsConfig struct {
	// Sink returns the sink to export; called per request.
	Sink func() *Sink
	// Why returns up to n decision records for one monitor as a
	// JSON-marshalable value ([]provenance.RecordJSON in practice).
	Why func(monitor string, n int) (any, error)
}

// flightEvent is the /flight wire form of one flight-recorder event.
type flightEvent struct {
	Seq     uint64  `json:"seq"`
	At      Time    `json:"at"`
	Dur     Time    `json:"dur,omitempty"`
	Kind    string  `json:"kind"`
	Subject string  `json:"subject"`
	Detail  string  `json:"detail,omitempty"`
	Value   float64 `json:"value,omitempty"`
}

// NewOpsMux returns the ops endpoint's routes:
//
//	/metrics        Prometheus text exposition
//	/snapshot.json  counter/histogram snapshot (WriteJSON)
//	/flight         retained flight-recorder events as JSON
//	/why            decision provenance: ?monitor=<name>[&n=5]
//	/healthz        liveness
func NewOpsMux(cfg OpsConfig) *http.ServeMux {
	sink := cfg.Sink
	if sink == nil {
		sink = func() *Sink { return nil }
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = sink().WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = sink().WriteJSON(w)
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var out []flightEvent
		if f := sink().Flight(); f != nil {
			events := f.Events()
			out = make([]flightEvent, 0, len(events))
			for _, e := range events {
				out = append(out, flightEvent{
					Seq: e.Seq, At: e.At, Dur: e.Dur, Kind: e.Kind.String(),
					Subject: e.Subject, Detail: e.Detail, Value: e.Value,
				})
			}
		}
		if out == nil {
			out = []flightEvent{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
	mux.HandleFunc("/why", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Why == nil {
			http.Error(w, "provenance not attached", http.StatusNotFound)
			return
		}
		monitor := r.URL.Query().Get("monitor")
		if monitor == "" {
			http.Error(w, "missing ?monitor=<name>", http.StatusBadRequest)
			return
		}
		n := 5
		if raw := r.URL.Query().Get("n"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 0 {
				http.Error(w, "bad ?n", http.StatusBadRequest)
				return
			}
			n = v
		}
		out, err := cfg.Why(monitor, n)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// OpsServer is a live ops endpoint bound to a listener.
type OpsServer struct {
	ln  net.Listener
	srv *http.Server
}

// opsReadHeaderTimeout bounds how long a connection may take to send
// its request line and headers. Without it a client that opens a
// connection and never finishes its request holds the connection and
// its goroutine until the process exits.
const opsReadHeaderTimeout = 5 * time.Second

// ServeOps binds addr (":9090", "127.0.0.1:0", ...) and serves the ops
// routes on it in a background goroutine until Close.
func ServeOps(addr string, cfg OpsConfig) (*OpsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &OpsServer{ln: ln, srv: &http.Server{
		Handler:           NewOpsMux(cfg),
		ReadHeaderTimeout: opsReadHeaderTimeout,
	}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (resolving a :0 request).
func (s *OpsServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight request handling.
func (s *OpsServer) Close() error { return s.srv.Close() }
