package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"syscall"
	"testing"
	"time"

	"coolpim/internal/core"
	"coolpim/internal/experiments"
	"coolpim/internal/graph"
	"coolpim/internal/system"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted input
	}
	for _, c := range []struct {
		p      float64
		want   float64
		enough bool
	}{
		{0.50, 50, true},
		{0.90, 90, true},  // 10 samples beyond
		{0.91, 91, false}, // 9 beyond
		{0.99, 99, false},
		{1.00, 100, false},
		{0.001, 1, true},
	} {
		v, ok := percentile(xs, c.p)
		if v != c.want || ok != c.enough {
			t.Errorf("percentile(1..100, %v) = %v, %v; want %v, %v", c.p, v, ok, c.want, c.enough)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("percentile(nil) = %v, %v", v, ok)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestLateness(t *testing.T) {
	due := time.Unix(100, 0)
	if l := lateness(due, due.Add(-time.Millisecond)); l != 0 {
		t.Errorf("early send: lateness %v, want 0", l)
	}
	if l := lateness(due, due.Add(3*time.Millisecond)); l != 3*time.Millisecond {
		t.Errorf("late send: lateness %v, want 3ms", l)
	}
}

func TestUnionSeconds(t *testing.T) {
	at := func(s float64) time.Time { return time.Unix(100, 0).Add(time.Duration(s * float64(time.Second))) }
	iv := func(from, to float64) interval { return interval{at(from), at(to)} }
	for _, c := range []struct {
		xs   []interval
		want float64
	}{
		{nil, 0},
		{[]interval{iv(0, 1)}, 1},
		{[]interval{iv(3, 4), iv(0, 1)}, 2},               // disjoint, out of order
		{[]interval{iv(0, 2), iv(1, 3)}, 3},               // overlapping
		{[]interval{iv(0, 4), iv(1, 2), iv(5, 6)}, 5},     // nested
		{[]interval{iv(0, 1), iv(1, 2), iv(1.5, 1.7)}, 2}, // touching
	} {
		if got := unionSeconds(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("unionSeconds(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestServeSchedule checks that the schedule offers the stated rates:
// missRate × d misses, the rest hits, every miss with its own graph
// seed, in due order within the run.
func TestServeSchedule(t *testing.T) {
	l := serveLoadFor(false)
	d := 20 * time.Second
	as := l.schedule(rand.New(rand.NewSource(1)), d, map[int64]bool{})
	count := map[string]int{}
	seeds := map[int64]bool{}
	for i, a := range as {
		count[a.kind]++
		if a.kind == "miss" {
			seeds[a.graphSeed] = true
		}
		if a.due < 0 || a.due >= d || (i > 0 && a.due < as[i-1].due) {
			t.Fatalf("arrival %d due at %v, out of order or outside the run", i, a.due)
		}
	}
	if want := int(l.missRate * d.Seconds()); count["miss"] != want || len(seeds) != want {
		t.Errorf("%d misses with %d distinct seeds, want %d", count["miss"], len(seeds), want)
	}
	if want := int(l.hitRate * d.Seconds()); count["hit"] != want {
		t.Errorf("%d hits, want %d", count["hit"], want)
	}
	again := l.schedule(rand.New(rand.NewSource(1)), d, map[int64]bool{})
	if !reflect.DeepEqual(as, again) {
		t.Error("the same seed gave a different schedule")
	}
}

func TestStackLayer(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		// Runtime helpers go to the nearest internal caller.
		{[]string{"runtime.duffcopy", "coolpim/internal/sim.(*Engine).step", "main.main"}, "sim"},
		{[]string{"runtime.coroswitch", "iter.Pull[...].func1", "coolpim/internal/simt.StartWarp", "coolpim/internal/gpu.(*GPU).issue"}, "simt"},
		{[]string{"runtime.mallocgc", "coolpim/internal/kernels.NewSized"}, "simt"},
		// Helper packages are transparent.
		{[]string{"coolpim/internal/units.Time.Seconds", "coolpim/internal/dram.(*Bank).Access"}, "hmc"},
		{[]string{"coolpim/internal/system.(*thermalCoupler).tick", "coolpim/internal/system.RunWorkload.func4"}, "thermal"},
		{[]string{"coolpim/internal/system.RunWorkload.func7"}, "system"},
		{[]string{"coolpim/internal/experiments.RunMatrixOpts.func1"}, "runner"},
		{[]string{"coolpim/internal/resultcache.(*Store).put"}, "serve"},
		{[]string{"coolpim/internal/specflag.Parse"}, "other"},
		// No internal frame.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"encoding/json.Unmarshal", "main.(*bench).checkMiss"}, "bench"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "serve"},
		{[]string{"net/http.(*persistConn).readLoop"}, "bench"},
		{nil, "other"},
	} {
		if got := stackLayer(c.frames); got != c.want {
			t.Errorf("stackLayer(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestBucketsMustSumToTotal(t *testing.T) {
	b := cpuBuckets{Samples: 10, ByLayer: map[string]int64{"sim": 6, "hmc": 4}}
	if err := b.check(); err != nil {
		t.Fatal(err)
	}
	b.ByLayer["hmc"] = 3
	if err := b.check(); err == nil {
		t.Fatal("check accepted buckets that miss a sample")
	}
	// A sample charged to a bucket share() never reports counts as
	// missing, even though the map as a whole still sums to the total.
	b.ByLayer["unlisted"] = 1
	if err := b.check(); err == nil {
		t.Fatal("check accepted a sample charged to an unlisted layer")
	}
}

// spin burns d of CPU time in the benchmark's own code, or gives up
// after ten times d of wall time on a starved host.
func spin(d time.Duration) int {
	cpu := func() time.Duration {
		var ru syscall.Rusage
		syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		return time.Duration(ru.Utime.Nano())
	}
	n := 0
	for c0, t0 := cpu(), time.Now(); cpu()-c0 < d && time.Since(t0) < 10*d; {
		for i := 0; i < 1e5; i++ {
			n += i % 7
		}
	}
	return n
}

var sink int

func TestBucketProfileDecodesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sink = spin(200 * time.Millisecond)
	pprof.StopCPUProfile()
	b, err := bucketProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.check(); err != nil {
		t.Fatal(err)
	}
	if b.Samples == 0 || b.CPUNs == 0 {
		t.Fatalf("profile of 200ms of spinning has %d samples, %d ns", b.Samples, b.CPUNs)
	}
	if b.ByLayer["bench"] == 0 {
		t.Errorf("spinning in package main was not charged to bench: %v", b.ByLayer)
	}
	if _, err := bucketProfile([]byte{0x0a, 0xff}); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// smallResult runs a tiny cell for the fingerprint tests.
func smallResult(t *testing.T) *system.Result {
	t.Helper()
	g := graph.GenRMAT(8, 4, graph.LDBCLikeParams(), 3)
	res, err := system.Run("pagerank", core.CoolPIMHW, experiments.ScaledConfig(8), g)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFingerprintGateRejectsPerturbedResult(t *testing.T) {
	res := smallResult(t)
	fp := fingerprint(res)
	if again := fingerprint(smallResult(t)); again != fp {
		t.Fatalf("same cell fingerprints differently: %s vs %s", fp, again)
	}
	g := newGate(map[string]string{"cell": fp})
	if err := g.check("cell", res); err != nil {
		t.Fatalf("unperturbed result rejected: %v", err)
	}

	perturbations := map[string]func(r *system.Result){
		"runtime":       func(r *system.Result) { r.Runtime++ },
		"hmc counters":  func(r *system.Result) { r.HMC.PIMOps++ },
		"gpu stats":     func(r *system.Result) { r.GPU.DivergentOps++ },
		"l2 stats":      func(r *system.Result) { r.L2.Misses++ },
		"peak dram bit": func(r *system.Result) { r.PeakDRAM += r.PeakDRAM * 1e-15 },
		"warnings":      func(r *system.Result) { r.WarningsSeen++ },
		"pool size":     func(r *system.Result) { r.FinalPoolSize-- },
		"series":        func(r *system.Result) { r.Series[len(r.Series)-1].PoolSize++ },
		"per-cube":      func(r *system.Result) { r.PerCube = append(r.PerCube, system.CubeResult{Node: 1}) },
	}
	for name, perturb := range perturbations {
		r := *res
		r.Series = append([]system.Sample(nil), res.Series...)
		perturb(&r)
		if err := newGate(map[string]string{"cell": fp}).check("cell", &r); err == nil {
			t.Errorf("%s: perturbed result passed the pinned gate", name)
		}
		// Unpinned, the gate still catches a cell that changes within a run.
		g := newGate(nil)
		if err := g.check("cell", res); err != nil {
			t.Fatal(err)
		}
		if err := g.check("cell", &r); err == nil {
			t.Errorf("%s: perturbed repeat passed the in-run gate", name)
		}
	}

	bad := *res
	bad.VerifyErr = errors.New("wrong rank")
	if err := newGate(nil).check("cell", &bad); err == nil {
		t.Error("gate accepted a result that failed verification")
	}
}

func TestPinTable(t *testing.T) {
	pins, err := parsePins(pinsText)
	if err != nil {
		t.Fatal(err)
	}
	if len(pins) == 0 {
		t.Fatal("pin table is empty")
	}
	if _, err := parsePins("cell fp extra\n"); err == nil {
		t.Error("malformed pin line accepted")
	}
}

func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cell-paper", "--trace", "2"},
		{"--workload", "cell-paper", "--seconds", "0"},
		{"--workload", "cell-paper", "extra"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	o, err := parseFlags([]string{"--workload", "serve-mixed", "--seed", "7", "--seconds", "3", "--trace", "1"}, io.Discard)
	if err != nil || o.seed != 7 || o.seconds != 3 || !o.trace {
		t.Errorf("parseFlags = %+v, %v", o, err)
	}
}

// TestSmallWorkloads runs the tiny version of every workload, untraced
// and traced, and checks the result line the benchmark would print.
func TestSmallWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				var log bytes.Buffer
				out, err := run(options{workload: w.name, seed: 5, seconds: 1, trace: trace,
					small: true, outDir: t.TempDir()}, &log)
				if errors.Is(err, errDropped) {
					t.Skipf("host too loaded to keep the load schedule: %v", err)
				}
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d\n%s", out.Correct, out.Attempted, out.Failed, log.String())
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v, present %v", d.name, m, ok)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if trace && out.Metrics["profile.samples"].Value > 0 {
					var sum float64
					for _, l := range layers {
						sum += out.Metrics[l+".cpu_share"].Value
					}
					if sum < 0.999 || sum > 1.001 {
						t.Errorf("cpu shares sum to %v", sum)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
