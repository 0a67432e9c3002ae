package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"coolpim/internal/core"
	"coolpim/internal/experiments"
	"coolpim/internal/graph"
	"coolpim/internal/serve"
	"coolpim/internal/system"
)

// serveLoad sizes the serve-mixed traffic: an open-loop schedule of
// submissions, unique specs (cache misses that simulate one cell) at
// missRate and repeats of the warmed spec (cache hits) at hitRate. No
// production trace exists to replay, so the mix is synthetic and each
// rate follows from a stated target; README.md gives the derivation.
type serveLoad struct {
	hitRate     float64 // hit submissions per second
	missRate    float64 // unique-spec submissions per second
	metricsPoll time.Duration
	statusPoll  time.Duration // how often outstanding misses are polled
	scale       int           // RMAT scale of every spec's graph
	reps        int
	kernel      string
	policy      core.PolicyKind
}

// serveSlots is the server's admission limit (MaxInflight): how many
// misses simulate at once. The server and the load generator share one
// process capped at maxProcs Go threads. With two slots, two simulating
// misses hold both threads, and the generator and the hit handlers wait
// for Go's 10 ms preemption: on the reference host that put the
// generator's lateness p99 at 50 ms and hit p99 at 65 ms. One slot
// leaves a thread for them, as a generator on another host would have.
const serveSlots = 1

// The full-size rates. missRate offers the admission slot a utilisation
// of targetMissLoad, given the miss service time measured on an idle
// server (serve.miss_service_ms, about 215 ms for a scale-12 pagerank
// cell on the 2-core reference host): 2/s × 0.215 s = 0.43. At that
// load the slot idles more than half the time, so the backlog drains
// and miss latency stays mostly simulation, while a good share of
// misses still arrive to a busy slot and wait in the admission queue.
// hitRate is the smallest round rate that gives a 20 s run 1000 hits,
// so hit_p99 has ten samples beyond it.
const (
	targetMissLoad = 0.43
	fullMissRate   = 2.0
	fullHitRate    = 50.0
)

func serveLoadFor(small bool) serveLoad {
	l := serveLoad{hitRate: fullHitRate, missRate: fullMissRate,
		metricsPoll: 100 * time.Millisecond, statusPoll: 10 * time.Millisecond,
		scale: 12, reps: 1, kernel: "pagerank", policy: core.CoolPIMHW}
	if small {
		l.hitRate, l.missRate, l.scale = 36, 4, 8
	}
	return l
}

// lateLimit is how far behind its schedule the generator may fall (at
// the 99th percentile) before the run is dropped: beyond it the offered
// load was not the stated one.
const lateLimit = 100 * time.Millisecond

// errDropped marks a run whose load generator missed its schedule.
var errDropped = errors.New("run dropped")

// spec is the one-cell campaign a submission asks for.
func (l serveLoad) spec(graphSeed int64) experiments.CampaignSpec {
	return experiments.CampaignSpec{
		Scale: l.scale, EdgeFactor: 8, Seed: graphSeed, Reps: l.reps,
		Workloads: []string{l.kernel}, Policies: []string{policyFlag(l.policy)},
		Parallel: 1,
	}
}

func (l serveLoad) cellKey(graphSeed int64) string {
	return cellSpec{scale: l.scale, edgeFactor: 8, graphSeed: graphSeed,
		kernel: l.kernel, reps: l.reps, policy: l.policy}.key("serve-mixed")
}

// liveServer is a coolpim-serve instance on a loopback port.
type liveServer struct {
	dir  string
	svc  *serve.Server
	http *http.Server
	url  string
	done chan error
}

func startServer(parentDir string) (*liveServer, error) {
	if err := os.MkdirAll(parentDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parentDir, "serve-cache-")
	if err != nil {
		return nil, err
	}
	svc, err := serve.New(serve.Config{CacheDir: dir, MaxInflight: serveSlots, MaxQueue: 64})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &liveServer{dir: dir, svc: svc, http: &http.Server{Handler: svc.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the server, waits for its serving goroutine and removes
// its cache.
func (s *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.svc.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// requestTimeout bounds one request, and how long past its schedule a
// run may keep sending or waiting for a miss, so a wedged server ends
// the run with failures instead of hanging it.
const requestTimeout = time.Minute

// client is one HTTP connection to the server.
func client() *http.Client {
	return &http.Client{Timeout: requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// reply is one finished request.
type reply struct {
	status int
	cache  string // X-Cache: "hit" or "miss"
	body   []byte
	err    error
}

// submit posts spec synchronously and returns the campaign's result.
func submit(c *http.Client, url string, spec experiments.CampaignSpec) reply {
	return post(c, url+"/v1/runs", spec)
}

// submitAsync posts spec with ?async=1 and returns the run's id: the
// server answers at once and simulates in the background, behind its
// admission control.
func submitAsync(c *http.Client, url string, spec experiments.CampaignSpec) (string, error) {
	r := post(c, url+"/v1/runs?async=1", spec)
	if r.err != nil {
		return "", r.err
	}
	if r.status != http.StatusAccepted {
		return "", fmt.Errorf("async submit: status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	var st runStatus
	if err := json.Unmarshal(r.body, &st); err != nil || st.ID == "" {
		return "", fmt.Errorf("async submit: no run id in %q", bytes.TrimSpace(r.body))
	}
	return st.ID, nil
}

func post(c *http.Client, target string, spec experiments.CampaignSpec) reply {
	body, err := json.Marshal(spec)
	if err != nil {
		return reply{err: err}
	}
	resp, err := c.Post(target, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: data, err: err}
}

// runStatus is the status document of GET /v1/runs/{id}.
type runStatus struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// getStatus reads one run's status.
func getStatus(c *http.Client, url, id string) (runStatus, error) {
	resp, err := c.Get(url + "/v1/runs/" + id)
	if err != nil {
		return runStatus{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return runStatus{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return runStatus{}, fmt.Errorf("status of run %s: status %d: %s", id, resp.StatusCode, bytes.TrimSpace(data))
	}
	var st runStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return runStatus{}, fmt.Errorf("status of run %s: %w", id, err)
	}
	return st, nil
}

// resultDoc is the part of a campaign response the benchmark checks.
type resultDoc struct {
	Rows []struct {
		Workload string                    `json:"workload"`
		Results  map[string]*system.Result `json:"results"`
	} `json:"rows"`
}

// checkMiss validates a simulated response and gates its one cell.
func (b *bench) checkMiss(l serveLoad, graphSeed int64, r reply) (*system.Result, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	var doc resultDoc
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	if len(doc.Rows) != 1 || len(doc.Rows[0].Results) != 1 {
		return nil, fmt.Errorf("want one cell, got %d rows", len(doc.Rows))
	}
	res := doc.Rows[0].Results[policyFlag(l.policy)]
	return res, b.gate.check(l.cellKey(graphSeed), res)
}

// arrival is one scheduled request.
type arrival struct {
	due       time.Duration // offset from the start of the schedule
	kind      string        // "hit", "miss" or "poll"
	graphSeed int64         // misses: the unique spec's graph seed
}

// schedule lays out the open-loop arrivals of one run: submissions on
// a jittered grid at the combined rate, a fixed count of them (missRate
// × d) turned into misses at seeded positions, and metric polls at a
// fixed period. The same rng state gives the same schedule.
func (l serveLoad) schedule(rng *rand.Rand, d time.Duration, usedSeeds map[int64]bool) []arrival {
	rate := l.hitRate + l.missRate
	n := int(rate * d.Seconds())
	gap := time.Duration(float64(time.Second) / rate)
	var as []arrival
	for i := 0; i < n; i++ {
		due := time.Duration(i)*gap + time.Duration(rng.Int63n(int64(gap)))
		as = append(as, arrival{due: due, kind: "hit"})
	}
	misses := min(n, int(l.missRate*d.Seconds()+0.5))
	for _, i := range rng.Perm(n)[:misses] {
		as[i].kind = "miss"
		as[i].graphSeed = freshSeed(rng, usedSeeds)
	}
	for t := l.metricsPoll; t < d; t += l.metricsPoll {
		as = append(as, arrival{due: t, kind: "poll"})
	}
	sort.SliceStable(as, func(i, j int) bool { return as[i].due < as[j].due })
	return as
}

// freshSeed draws a graph seed no earlier spec of the run used.
func freshSeed(rng *rand.Rand, used map[int64]bool) int64 {
	for {
		s := 1 + rng.Int63n(1<<31)
		if !used[s] {
			used[s] = true
			return s
		}
	}
}

// outcome is a finished scheduled request.
type outcome struct {
	a          arrival
	r          reply
	late       time.Duration // send time minus due time
	latency    time.Duration // due time to response (misses: to the poll that saw the run end)
	sent, done time.Time     // misses: the interval the run was outstanding
	refused    bool          // a miss the server's admission control rejected
}

// runServeMixed drives coolpim-serve with the open-loop mix over two
// loopback connections: one carries the hits and metric polls, the
// other submits the misses asynchronously and polls their status, so a
// hit never queues behind a miss on the client side and only competes
// with it for the server's CPUs, and overlapping misses reach the
// server's admission control together.
func runServeMixed(b *bench) error {
	l := serveLoadFor(b.opts.small)
	rng := rand.New(rand.NewSource(b.opts.seed))
	used := make(map[int64]bool)
	cacheRoot := filepath.Join(b.opts.outDir, "serve")

	var srv *liveServer
	var hitSeed int64
	var warm []byte
	var service []float64
	hitClient, missClient := client(), client()
	defer hitClient.CloseIdleConnections()
	defer missClient.CloseIdleConnections()
	closeSrv := func() error {
		if srv == nil {
			return nil
		}
		err := srv.close()
		srv = nil
		return err
	}
	defer closeSrv()
	// One set-up starts a server with an empty cache and warms it with
	// the spec the hits will repeat. Each repetition uses a new spec, so
	// none finds its graph already generated. The warming request is a
	// miss on an idle server, so its latency is the miss service time.
	warmSeeds := make([]int64, minSetups)
	for i := range warmSeeds {
		warmSeeds[i] = freshSeed(rng, used)
	}
	arrivals := l.schedule(rng, b.budget(), used)
	err := b.measureSetup(0, func(i int) error {
		if err := closeSrv(); err != nil {
			return err
		}
		root := b.spans.root("setup")
		defer root.end()
		var err error
		if srv, err = startServer(cacheRoot); err != nil {
			return err
		}
		hitSeed = warmSeeds[i]
		sp := root.child("serve.request")
		t0 := time.Now()
		r := submit(hitClient, srv.url, l.spec(hitSeed))
		service = append(service, ms(time.Since(t0)))
		sp.end("cache", r.cache, "kind", "warm")
		b.attempted++
		if _, err := b.checkMiss(l, hitSeed, r); err != nil {
			return fmt.Errorf("warming request: %w", err)
		}
		if r.cache != "miss" {
			return fmt.Errorf("warming request answered as X-Cache %q", r.cache)
		}
		warm = r.body
		return nil
	})
	if err != nil {
		return err
	}
	hitSpec := l.spec(hitSeed)
	b.layer["serve.miss_service_ms"] = median(service)
	fmt.Fprintf(b.log, "miss service time on an idle server %.1f ms: %.1f misses/s offer %d admission slot(s) a load of %.2f (target %.2f)\n",
		median(service), l.missRate, serveSlots, l.missRate*median(service)/1000/serveSlots, targetMissLoad)

	var outs []outcome
	load := func() { outs = b.drive(srv.url, hitClient, missClient, hitSpec, l, arrivals) }
	if b.opts.trace {
		if _, err := b.profiled(load); err != nil {
			return err
		}
	} else {
		load()
	}

	// Check every reply and sort the latencies by cache outcome.
	var hitLat, missLat, late []float64
	var busy []interval
	var warpOps float64
	accepted := 0
	depthMax := 0.0
	for _, o := range outs {
		b.attempted++
		late = append(late, ms(o.late))
		r := o.r
		if o.refused || (r.err == nil && r.status == http.StatusTooManyRequests) {
			b.layer["serve.rejected"]++
		}
		switch o.a.kind {
		case "poll":
			depth, err := gaugeValue(r, "coolpim_admission_queue_depth")
			if err != nil {
				b.fail(fmt.Errorf("metrics poll: %w", err))
				continue
			}
			depthMax = max(depthMax, depth)
			continue
		case "hit":
			switch {
			case r.err != nil:
				b.fail(fmt.Errorf("hit: %w", r.err))
			case r.status != http.StatusOK:
				b.fail(fmt.Errorf("hit: status %d", r.status))
			case r.cache != "hit":
				b.fail(fmt.Errorf("repeated spec answered as X-Cache %q", r.cache))
			case !bytes.Equal(r.body, warm):
				b.fail(errors.New("hit body differs from the body its spec's miss returned"))
			default:
				hitLat = append(hitLat, ms(o.latency))
			}
		case "miss":
			if !o.sent.IsZero() {
				accepted++
			}
			res, err := b.checkMiss(l, o.a.graphSeed, r)
			if err != nil {
				b.fail(fmt.Errorf("miss: %w", err))
				continue
			}
			missLat = append(missLat, ms(o.latency))
			busy = append(busy, interval{o.sent, o.done})
			warpOps += float64(res.GPU.WarpOps)
			b.addResultCounters(res)
		}
	}
	// Every checked hit and miss is one latency sample.
	b.layer["serve.hits"] = float64(len(hitLat))
	b.layer["serve.misses"] = float64(len(missLat))
	b.layer["serve.queue_depth_max"] = depthMax
	b.layer["loadgen.sent"] = float64(len(outs))
	for _, p := range []struct {
		name  string
		xs    []float64
		q     float64
		label string
	}{
		{"serve.hit_p50_ms", hitLat, 0.50, "hit p50"},
		{"serve.hit_p99_ms", hitLat, 0.99, "hit p99"},
		{"serve.miss_p50_ms", missLat, 0.50, "miss p50"},
		{"serve.miss_p90_ms", missLat, 0.90, "miss p90"},
		{"loadgen.late_p99_ms", late, 0.99, "generator lateness p99"},
	} {
		v, ok := percentile(p.xs, p.q)
		b.layer[p.name] = v
		note := fmt.Sprintf("%s: %.3f ms over %d samples", p.label, v, len(p.xs))
		if !ok {
			note += fmt.Sprintf(" (fewer than %d samples beyond it)", minTail)
		}
		fmt.Fprintln(b.log, note)
	}
	fmt.Fprintf(b.log, "admission queue depth: max %.0f; misses refused: %.0f\n", depthMax, b.layer["serve.rejected"])
	if lateP99 := b.layer["loadgen.late_p99_ms"]; lateP99 > ms(lateLimit) {
		return fmt.Errorf("%w: the load generator fell %.1f ms behind its schedule at p99 (limit %v)", errDropped, lateP99, lateLimit)
	}

	// The server's own view of the cache, read once the load is over:
	// every accepted miss, and the warming request, must have missed.
	hits, herr := gaugeValue(getMetrics(hitClient, srv.url), "coolpim_cache_hits_total")
	misses, merr := gaugeValue(getMetrics(hitClient, srv.url), "coolpim_cache_misses_total")
	if err := errors.Join(herr, merr); err != nil {
		return err
	}
	if want := float64(accepted + 1); misses != want {
		b.fail(fmt.Errorf("result cache counted %.0f misses, want %.0f (the warming request and every unique spec)", misses, want))
	}
	if hits+misses > 0 {
		b.layer["resultcache.hit_ratio"] = hits / (hits + misses)
	}

	if b.opts.trace {
		t0 := time.Now()
		graph.GenRMAT(l.scale, 8, graph.LDBCLikeParams(), hitSeed)
		b.layer["graph.gen_s"] = time.Since(t0).Seconds()
	}
	// wall_s is the time the server had at least one miss outstanding:
	// the work a faster simulator shortens, unlike the schedule's length.
	busyS := unionSeconds(busy)
	fmt.Fprintf(b.log, "miss path busy %.3f s of the %v schedule\n", busyS, b.budget())
	b.e2e["op_p50_ms"] = median(append(hitLat, missLat...))
	b.samples["op_p50_ms"] = len(hitLat) + len(missLat)
	b.e2e["wall_s"] = busyS
	if busyS > 0 {
		b.e2e["warp_ops_per_s"] = warpOps / busyS
	}
	return closeSrv()
}

// drive plays the schedule against the server and returns every
// request's outcome. The hit connection's worker sends hits and metric
// polls in due order and waits for each reply. The miss connection's
// worker submits each miss asynchronously when it is due and, between
// submissions, polls the outstanding runs every statusPoll until they
// end. Lateness is taken just before each request is sent, so a backlog
// on either connection counts against the drop limit. Latency runs from
// the due time, so a request that waited on its connection is charged
// the wait.
func (b *bench) drive(url string, hitClient, missClient *http.Client, hitSpec experiments.CampaignSpec, l serveLoad, as []arrival) []outcome {
	type job struct {
		i   int
		due time.Time
	}
	outs := make([]outcome, len(as))
	for i, a := range as {
		outs[i].a = a
	}
	// Buffered to the whole schedule so the dispatcher never blocks.
	hitQ, missQ := make(chan job, len(as)), make(chan job, len(as))
	start := time.Now()
	deadline := start.Add(b.budget() + requestTimeout)
	errNotSent := errors.New("not sent: the schedule overran by more than the request timeout")

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for j := range hitQ {
			a := as[j.i]
			sp := b.spans.rootAt("serve.request", j.due)
			sent := time.Now()
			var r reply
			switch {
			case sent.After(deadline):
				r.err = errNotSent
			case a.kind == "poll":
				r = getMetrics(hitClient, url)
			default:
				r = submit(hitClient, url, hitSpec)
			}
			done := time.Now()
			sp.endAt(done, "kind", a.kind, "cache", r.cache, "status", strconv.Itoa(r.status))
			o := &outs[j.i]
			o.r, o.late, o.latency = r, lateness(j.due, sent), done.Sub(j.due)
		}
	}()
	go func() {
		defer wg.Done()
		type pendingRun struct {
			j  job
			id string
			sp span
		}
		var pending []pendingRun
		finish := func(j job, sp span, r reply, tags ...string) {
			done := time.Now()
			o := &outs[j.i]
			o.r, o.done, o.latency = r, done, done.Sub(j.due)
			sp.endAt(done, append([]string{"kind", "miss", "cache", "miss"}, tags...)...)
		}
		tick := time.NewTicker(l.statusPoll)
		defer tick.Stop()
		q := missQ
		for q != nil || len(pending) > 0 {
			var poll <-chan time.Time
			if len(pending) > 0 {
				poll = tick.C
			}
			select {
			case j, ok := <-q:
				if !ok {
					q = nil
					continue
				}
				sp := b.spans.rootAt("serve.request", j.due)
				sent := time.Now()
				outs[j.i].late = lateness(j.due, sent)
				if sent.After(deadline) {
					finish(j, sp, reply{err: errNotSent})
					continue
				}
				id, err := submitAsync(missClient, url, l.spec(as[j.i].graphSeed))
				if err != nil {
					finish(j, sp, reply{err: err})
					continue
				}
				outs[j.i].sent = sent
				pending = append(pending, pendingRun{j, id, sp})
			case <-poll:
				kept := pending[:0]
				for _, p := range pending {
					st, err := getStatus(missClient, url, p.id)
					switch {
					case err != nil:
						finish(p.j, p.sp, reply{err: err})
					case st.State == serve.StateDone:
						finish(p.j, p.sp, reply{status: http.StatusOK, cache: "miss", body: st.Result}, "status", "200")
					case st.State == serve.StateFailed:
						// An admission rejection fails the run with
						// serve.ErrOverloaded's message.
						outs[p.j.i].refused = strings.Contains(st.Error, "at capacity")
						finish(p.j, p.sp, reply{err: fmt.Errorf("run %s failed: %s", p.id, st.Error)})
					case time.Now().After(deadline):
						finish(p.j, p.sp, reply{err: fmt.Errorf("run %s still %s past the request timeout", p.id, st.State)})
					default:
						kept = append(kept, p)
					}
				}
				pending = kept
			}
		}
	}()

	for i, a := range as {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		if a.kind == "miss" {
			missQ <- job{i, due}
		} else {
			hitQ <- job{i, due}
		}
	}
	close(hitQ)
	close(missQ)
	wg.Wait()
	return outs
}

// interval is a span of wall time.
type interval struct{ from, to time.Time }

// unionSeconds is the length of the union of intervals: the time at
// least one of them was open.
func unionSeconds(xs []interval) float64 {
	s := append([]interval(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i].from.Before(s[j].from) })
	var total time.Duration
	var cur interval
	for i, x := range s {
		switch {
		case i == 0:
			cur = x
		case x.from.After(cur.to):
			total += cur.to.Sub(cur.from)
			cur = x
		case x.to.After(cur.to):
			cur.to = x.to
		}
	}
	if len(s) > 0 {
		total += cur.to.Sub(cur.from)
	}
	return total.Seconds()
}

func getMetrics(c *http.Client, url string) reply {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: data, err: err}
}

// gaugeValue reads one unlabeled sample from a Prometheus text reply.
func gaugeValue(r reply, name string) (float64, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.status != http.StatusOK {
		return 0, fmt.Errorf("/metrics: status %d", r.status)
	}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("/metrics: no sample %s", name)
}
