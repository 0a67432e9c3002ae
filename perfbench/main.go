// Command perfbench is the repository's benchmark. It drives one named
// workload through the simulator's public entry points (system.RunWorkload
// and RunWorkloads, experiments.RunMatrixOpts, and coolpim-serve over
// loopback HTTP), checks every simulated result against pinned
// fingerprints, and prints its metrics as one JSON object on the last
// line of standard output.
//
//	go run ./perfbench --workload cell-paper --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it reports per-layer metrics instead, measured from
// outside the simulator: a CPU profile charged to layers, the public
// result counters, the engine profile of a telemetry-enabled run, and
// spans the benchmark records around its own calls. README.md explains
// the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the pin table was recorded with: it gives the
// paper cell its historical graph seed 42.
const defaultSeed = 42

// maxProcs bounds every kind of parallelism the benchmark uses: Go
// threads, campaign workers, engine shards, admission slots and client
// connections. The reference host has two cores.
const maxProcs = 2

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by
// every workload with tracing off. op_p50_ms is the median wait for one
// operation a user submits: a cell, a campaign or a 4-cube run (so it
// repeats wall_s there), or one HTTP request on serve-mixed, where it
// is the service latency.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"warp_ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. Every workload reports every
// one; a metric a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"}, {"sim.ns_per_event", "ns"}, {"sim.shard_speedup", "x"},
		{"simt.warp_ops", "count"}, {"simt.divergent_ops", "count"},
		{"gpu.load_lines", "count"}, {"gpu.uncached_lines", "count"},
		{"cache.l2_hits", "count"}, {"cache.l2_misses", "count"},
		{"hmc.reads", "count"}, {"hmc.writes", "count"}, {"hmc.pim_ops", "count"},
		{"hmc.flits", "count"}, {"flit.link_flits", "count"},
		{"thermal.ticks", "count"},
		{"core.warnings_seen", "count"}, {"core.control_updates", "count"},
		{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_share", "ratio"},
		{"graph.gen_s", "s"},
		{"runner.cell_s_p50", "s"}, {"runner.cell_s_max", "s"},
		{"runner.utilization", "ratio"}, {"runner.idle_worker_s", "s"},
		{"serve.hits", "count"}, {"serve.misses", "count"}, {"serve.rejected", "count"},
		{"serve.queue_depth_max", "count"}, {"resultcache.hit_ratio", "ratio"},
		{"serve.hit_p50_ms", "ms"}, {"serve.hit_p99_ms", "ms"},
		{"serve.miss_p50_ms", "ms"}, {"serve.miss_p90_ms", "ms"}, {"serve.miss_service_ms", "ms"},
		{"telemetry.overhead_s", "s"},
		{"loadgen.sent", "count"}, {"loadgen.late_p99_ms", "ms"},
		{"profile.samples", "count"},
		{"engineprofile.hmc_s", "s"}, {"engineprofile.gpu_s", "s"}, {"engineprofile.thermal_s", "s"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_share", "ratio"})
	}
	return defs
}()

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	small    bool   // tiny inputs, for the benchmark's own tests
	outDir   string // where traced runs write spans, profiles and tables
	pinsOut  string // if set, write every cell fingerprint here
}

// bench is one run's shared state: settings, the correctness gate, the
// span recorder (nil unless tracing) and what has been measured.
type bench struct {
	opts  options
	gate  *gate
	spans *spanRecorder
	log   io.Writer

	attempted, failed int
	e2e               map[string]float64
	samples           map[string]int // samples behind each end-to-end median
	layer             map[string]float64
	notes             []string // extra lines for the traced run's table
}

// fail records a failed operation.
func (b *bench) fail(err error) {
	b.failed++
	fmt.Fprintf(b.log, "FAIL: %v\n", err)
}

// budget is how long the timed region may run.
func (b *bench) budget() time.Duration { return time.Duration(b.opts.seconds) * time.Second }

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	out, err := run(opts, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed (inputs are generated from it)")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed region in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.BoolVar(&o.small, "small", false, "run the tiny version of the workload")
	fs.StringVar(&o.outDir, "out", ".bench_build/out", "directory for traced-run artifacts")
	fs.StringVar(&o.pinsOut, "pins-out", "", "write every cell fingerprint to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	var err error
	switch {
	case workloadByName(o.workload) == nil:
		err = fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	case trace != 0 && trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	case o.seconds < 1:
		err = fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
	}
	return o, err
}

// run executes one workload and assembles the result line. Human-readable
// detail goes to log.
func run(opts options, log io.Writer) (*output, error) {
	pins, err := parsePins(pinsText)
	if err != nil {
		return nil, err
	}
	b := &bench{
		opts:    opts,
		gate:    newGate(pins),
		log:     log,
		e2e:     make(map[string]float64),
		samples: make(map[string]int),
		layer:   make(map[string]float64),
	}
	for _, d := range perLayer {
		b.layer[d.name] = 0
	}
	if opts.trace {
		b.spans = newSpanRecorder()
	}
	w := workloadByName(opts.workload)
	if err := w.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", opts.workload, err)
	}
	b.e2e["max_rss_mb"] = maxRSSMB()
	if b.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}

	fmt.Fprintf(log, "workload %s seed %d: attempted %d, failed %d, run fingerprint %s (%d cells, %d unpinned)\n",
		opts.workload, opts.seed, b.attempted, b.failed, b.gate.runHash(), len(b.gate.cells()), b.gate.unpinned)
	if opts.pinsOut != "" {
		if err := writePins(opts.pinsOut, b.gate.cells()); err != nil {
			return nil, err
		}
	}
	out := &output{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]metric)}
	defs, vals := endToEnd, b.e2e
	if opts.trace {
		defs, vals = perLayer, b.layer
		if err := b.writeTraceArtifacts(); err != nil {
			return nil, err
		}
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		line := fmt.Sprintf("  %-24s %16.6g %s", d.name, v, d.unit)
		if n, ok := b.samples[d.name]; ok && !opts.trace {
			line += fmt.Sprintf(" (median of %d)", n)
		}
		fmt.Fprintln(log, line)
	}
	return out, nil
}

// writeTraceArtifacts writes the traced run's span JSONL and per-layer
// table under the output directory.
func (b *bench) writeTraceArtifacts() error {
	if err := os.MkdirAll(b.opts.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(b.opts.outDir, fmt.Sprintf("%s-seed%d", b.opts.workload, b.opts.seed))
	if err := b.spans.writeJSONL(base + ".spans.jsonl"); err != nil {
		return err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "per-layer metrics, workload %s, seed %d\n", b.opts.workload, b.opts.seed)
	for _, d := range perLayer {
		fmt.Fprintf(&sb, "  %-24s %16.6g %s\n", d.name, b.layer[d.name], d.unit)
	}
	for _, n := range b.notes {
		fmt.Fprintln(&sb, n)
		fmt.Fprintln(b.log, n)
	}
	fmt.Fprintf(b.log, "traced run: spans in %s.spans.jsonl, table in %s.layers.txt\n", base, base)
	return os.WriteFile(base+".layers.txt", []byte(sb.String()), 0o644)
}

func writePins(path string, cells [][2]string) error {
	var sb strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&sb, "%s %s\n", c[0], c[1])
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
