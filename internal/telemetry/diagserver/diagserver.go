// Package diagserver is the opt-in live diagnostics HTTP server behind
// the -diag-addr flag of coolpim-sim, coolpim-sweep and cmd/figures.
//
// It never touches live simulation state: the simulation goroutine
// periodically publishes immutable telemetry.Snapshot values through an
// atomic pointer (the snapshot-publication rule, DESIGN.md §11), and
// the HTTP handlers only ever read whole published snapshots. The
// campaign /runs table is the one mutable structure; it is owned by the
// runner's single collector goroutine and read under its own mutex.
// This package is harness code: like internal/runner it is a sanctioned
// home for goroutines and wall-clock reads under the determinism
// analyzer, and nothing here feeds back into simulated state.
//
// Endpoints:
//
//	/metrics      Prometheus text rendering of the last snapshot
//	/healthz      liveness + uptime + run progress (JSON)
//	/spans        recent spans of the last snapshot (JSON array)
//	/runs         in-flight campaign state (JSON array)
//	/debug/pprof  net/http/pprof profiling
package diagserver

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"coolpim/internal/telemetry"
)

// Server is one diagnostics HTTP server. Create with New, attach as
// the telemetry hub's SnapshotSink, Close when done.
type Server struct {
	ln      net.Listener
	srv     *http.Server
	snap    atomic.Pointer[telemetry.Snapshot]
	runs    *RunTable
	started time.Time
}

// New listens on addr (e.g. "127.0.0.1:0" for an ephemeral port) and
// starts serving in the background.
func New(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("diagserver: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:      ln,
		runs:    NewRunTable(),
		started: time.Now(), //coolpim:allow determinism harness uptime reporting; never feeds simulated state
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/spans", s.handleSpans)
	mux.HandleFunc("/runs", s.handleRuns)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	//coolpim:allow determinism harness HTTP server goroutine; handlers only read atomically published snapshots
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (host:port), useful with ":0".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// PublishSnapshot implements telemetry.SnapshotSink: it atomically
// swaps in the new snapshot for subsequent reads.
func (s *Server) PublishSnapshot(sn *telemetry.Snapshot) {
	if sn == nil {
		return
	}
	s.snap.Store(sn)
}

// Runs returns the campaign run table for harness wiring.
func (s *Server) Runs() *RunTable { return s.runs }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	sn := s.snap.Load()
	if sn == nil {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(sn.Metrics)
}

func (s *Server) handleSpans(w http.ResponseWriter, _ *http.Request) {
	sn := s.snap.Load()
	if sn == nil {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(sn.Spans)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	type health struct {
		Status    string  `json:"status"`
		UptimeS   float64 `json:"uptime_s"`
		RunID     string  `json:"run_id,omitempty"`
		SimTimeMs float64 `json:"sim_time_ms"`
		Spans     int     `json:"spans"`
		Snapshot  bool    `json:"snapshot_published"`
	}
	h := health{
		Status:  "ok",
		UptimeS: time.Since(s.started).Seconds(), //coolpim:allow determinism harness uptime reporting; never feeds simulated state
	}
	if sn := s.snap.Load(); sn != nil {
		h.RunID = sn.RunID
		h.SimTimeMs = sn.SimTime.Milliseconds()
		h.Spans = sn.SpanCount
		h.Snapshot = true
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.runs.JSON())
}

// RunTable tracks in-flight campaign state for /runs. It is safe for
// concurrent use: the runner's OnStart hook fires from worker
// goroutines and OnRunDone from the collector goroutine.
type RunTable struct {
	mu    sync.Mutex
	order []string           //coolpim:guard mu
	byKey map[string]*runRow //coolpim:guard mu
}

type runRow struct {
	Key        string  `json:"key"`
	State      string  `json:"state"` // running | ok | failed | ledger
	Attempts   int     `json:"attempts"`
	Error      string  `json:"error,omitempty"`
	FromLedger bool    `json:"from_ledger,omitempty"`
	WallS      float64 `json:"wall_s,omitempty"`
}

// NewRunTable returns an empty table.
func NewRunTable() *RunTable {
	return &RunTable{byKey: make(map[string]*runRow)}
}

// row finds or inserts the row for key.
//
//coolpim:locked mu
func (rt *RunTable) row(key string) *runRow {
	r, ok := rt.byKey[key]
	if !ok {
		r = &runRow{Key: key}
		rt.byKey[key] = r
		rt.order = append(rt.order, key)
	}
	return r
}

// Started records an attempt beginning (wire to runner Config.OnStart).
func (rt *RunTable) Started(key string, attempt int) {
	rt.mu.Lock()
	r := rt.row(key)
	r.State = "running"
	r.Attempts = attempt + 1
	rt.mu.Unlock()
}

// Finished records a final outcome (wire to the matrix OnRunDone hook).
func (rt *RunTable) Finished(key string, err error, fromLedger bool, wall time.Duration) {
	rt.mu.Lock()
	r := rt.row(key)
	switch {
	case err != nil:
		r.State = "failed"
		r.Error = err.Error()
	case fromLedger:
		r.State = "ledger"
	default:
		r.State = "ok"
	}
	r.FromLedger = fromLedger
	r.WallS = wall.Seconds()
	rt.mu.Unlock()
}

// JSON renders the table in first-seen order.
func (rt *RunTable) JSON() []byte {
	rt.mu.Lock()
	rows := make([]runRow, 0, len(rt.order))
	for _, k := range rt.order {
		rows = append(rows, *rt.byKey[k])
	}
	rt.mu.Unlock()
	b, err := json.Marshal(rows)
	if err != nil {
		return []byte("[]")
	}
	return b
}
