package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"coolpim/internal/system"
	"coolpim/internal/telemetry"
)

// A run repeats its set-up at least minSetups times, and more (up to
// maxSetups) until the repetitions add up to the caller's span; setup_s
// is the median, so one slow repetition does not move it and a set-up of
// a few milliseconds still gets enough repetitions to be steady. A
// 50 ms set-up gets 40 repetitions; the 0.6 s paper-cell set-up gets 5.
const (
	minSetups = 5
	maxSetups = 40
	setupSpan = 2 * time.Second
)

// measureSetup times setup repeatedly (i = 0, 1, ...) and records the
// median as setup_s. The last repetition's state is the one kept. A
// span of 0 gives exactly minSetups repetitions, for a set-up whose
// inputs must not depend on how many times it ran.
func (b *bench) measureSetup(span time.Duration, setup func(i int) error) error {
	var ts []float64
	var total time.Duration
	for i := 0; i < maxSetups && (i < minSetups || total < span); i++ {
		t0 := time.Now()
		if err := setup(i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		total += d
		ts = append(ts, d.Seconds())
		runtime.GC()
	}
	b.e2e["setup_s"] = median(ts)
	b.samples["setup_s"] = len(ts)
	return nil
}

// timedLoop runs iter until the time budget is spent and returns each
// iteration's wall time in seconds. It always runs minIters iterations,
// and after that starts another only if the previous one's length says
// it would end within the budget. A garbage collection before each
// iteration, outside its timing, keeps one iteration's garbage from
// adding to the next one's peak memory.
func (b *bench) timedLoop(minIters int, iter func()) []float64 {
	var walls []float64
	t0 := time.Now()
	for {
		runtime.GC()
		start := time.Now()
		iter()
		walls = append(walls, time.Since(start).Seconds())
		last := walls[len(walls)-1]
		if len(walls) >= minIters && time.Since(t0).Seconds()+last > b.budget().Seconds() {
			for _, m := range []string{"wall_s", "warp_ops_per_s", "op_p50_ms"} {
				b.samples[m] = len(walls)
			}
			return walls
		}
	}
}

// runtime/metrics read around a profiled region.
var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

// profiled runs fn under a CPU profile and returns its wall time in
// seconds. It charges the profile's samples to layers (*.cpu_share),
// checks that the buckets add up to the sample total, records the Go
// runtime's allocation and GC cost over fn, and keeps the raw profile
// in the output directory.
func (b *bench) profiled(fn func()) (float64, error) {
	var buf bytes.Buffer
	runtime.GC()
	before := readRuntime()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return 0, err
	}
	t0 := time.Now()
	fn()
	wall := time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	after := readRuntime()

	d := make([]float64, len(after))
	for i := range after {
		d[i] = after[i] - before[i]
	}
	b.layer["runtime.alloc_mb"] = d[0] / (1 << 20)
	b.layer["runtime.gc_cycles"] = d[1]
	if busy := d[3] - d[4]; busy > 0 {
		b.layer["runtime.gc_cpu_share"] = d[2] / busy
	}

	if err := os.MkdirAll(b.opts.outDir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(b.opts.outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", b.opts.workload, b.opts.seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return 0, err
	}
	bk, err := bucketProfile(buf.Bytes())
	if err != nil {
		return 0, err
	}
	if err := bk.check(); err != nil {
		return 0, fmt.Errorf("attribution: %w", err)
	}
	b.layer["profile.samples"] = float64(bk.Samples)
	for _, l := range layers {
		b.layer[l+".cpu_share"] = bk.share(l)
	}
	b.notes = append(b.notes, fmt.Sprintf("cpu profile %s: %d samples, %.2f s CPU over %.2f s wall; layer buckets sum to %d",
		path, bk.Samples, float64(bk.CPUNs)/1e9, wall, bk.Samples))
	for _, l := range layers {
		b.notes = append(b.notes, fmt.Sprintf("  pprof %-10s %6d samples %6.1f%%", l, bk.ByLayer[l], 100*bk.share(l)))
	}
	return wall, nil
}

// addResultCounters adds the public counters of simulated results to
// the per-layer metrics.
func (b *bench) addResultCounters(rs ...*system.Result) {
	for _, r := range rs {
		if r == nil {
			continue
		}
		add := func(name string, v uint64) { b.layer[name] += float64(v) }
		add("simt.warp_ops", r.GPU.WarpOps)
		add("simt.divergent_ops", r.GPU.DivergentOps)
		add("gpu.load_lines", r.GPU.LoadLines)
		add("gpu.uncached_lines", r.GPU.UncachedLines)
		add("cache.l2_hits", r.L2.Hits)
		add("cache.l2_misses", r.L2.Misses)
		add("hmc.reads", r.HMC.Reads)
		add("hmc.writes", r.HMC.Writes)
		add("hmc.pim_ops", r.HMC.PIMOps)
		add("hmc.flits", r.HMC.ReqFlits+r.HMC.RespFlits)
		for _, l := range r.Links {
			add("flit.link_flits", l.Counters.Flits)
		}
		add("core.warnings_seen", r.WarningsSeen)
		add("core.control_updates", r.ControlUpdates)
	}
}

// addEngineProfile records the event counts of a telemetry-enabled run
// and, next to the CPU profile's buckets, the engine profile's wall time
// per scheduling label. The engine profile charges a handler to the
// label its causal chain started under, so it is kept as a comparison,
// not as the attribution. A multi-cube run's profile observes cube 0's
// engine only, so its events are not divided into the run's wall time
// (allEvents false).
func (b *bench) addEngineProfile(tel *telemetry.Telemetry, wall float64, allEvents bool) {
	stats := tel.Profile().Stats()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Label < stats[j].Label })
	var events uint64
	for _, s := range stats {
		events += s.Events
		switch s.Label {
		case "thermal":
			b.layer["thermal.ticks"] = float64(s.Events)
			b.layer["engineprofile.thermal_s"] = float64(s.WallNs) / 1e9
		case "hmc", "gpu":
			b.layer["engineprofile."+s.Label+"_s"] = float64(s.WallNs) / 1e9
		}
		b.notes = append(b.notes, fmt.Sprintf("  engine profile %-10s %10d events %10.3f s", s.Label, s.Events, float64(s.WallNs)/1e9))
	}
	b.layer["sim.events"] = float64(events)
	if events > 0 && allEvents {
		b.layer["sim.ns_per_event"] = wall * 1e9 / float64(events)
	}
}
