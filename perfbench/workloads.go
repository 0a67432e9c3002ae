package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"coolpim/internal/core"
	"coolpim/internal/experiments"
	"coolpim/internal/graph"
	"coolpim/internal/hmc"
	"coolpim/internal/kernels"
	"coolpim/internal/system"
	"coolpim/internal/telemetry"
)

// workload is one named input set the benchmark can run.
type workload struct {
	name string
	run  func(b *bench) error
}

// workloads are listed in BENCHMARK.json order; README.md gives the
// reason for each. The three simulation workloads run fixed inputs (the
// profiles' graph seed 42), so their work, and their pinned results, are
// the same on every seed; the seed drives serve-mixed's traffic.
var workloads = []workload{
	{"cell-paper", runCellPaper},
	{"campaign-test", runCampaignTest},
	{"serve-mixed", runServeMixed},
	{"multicube-4chain", runMultiCube},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// cellSpec is one single-cell simulation: a graph, a kernel sized by
// reps, a policy and the platform.
type cellSpec struct {
	scale, edgeFactor int
	graphSeed         int64
	kernel            string
	reps              int
	policy            core.PolicyKind
	sys               system.Config
}

// key names the cell by its inputs, for the pin table.
func (c cellSpec) key(workload string) string {
	return fmt.Sprintf("%s/s%d-ef%d-g%d/%s-r%d/%s/cubes%d", workload, c.scale, c.edgeFactor,
		c.graphSeed, c.kernel, c.reps, policyFlag(c.policy), max(c.sys.Net.Cubes, 1))
}

// policyFlag is the CLI spelling of a policy.
func policyFlag(k core.PolicyKind) string {
	for _, n := range core.PolicyNames() {
		if p, err := core.ParsePolicy(n); err == nil && p == k {
			return n
		}
	}
	return k.String()
}

// genGraph generates the cell's graph inside a graph.gen span.
func (b *bench) genGraph(parent span, scale, edgeFactor int, seed int64) *graph.Graph {
	sp := parent.child("graph.gen")
	g := graph.GenRMAT(scale, edgeFactor, graph.LDBCLikeParams(), seed)
	sp.end("scale", fmt.Sprint(scale))
	return g
}

// simulate builds the cell's workload replicas (one per cube) and runs
// them, inside kernels.new and system.run spans.
func (b *bench) simulate(parent span, c cellSpec, g *graph.Graph) (*system.Result, error) {
	sp := parent.child("kernels.new")
	ws := make([]kernels.Workload, max(c.sys.Net.Cubes, 1))
	for i := range ws {
		w, err := kernels.NewSized(c.kernel, c.reps)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	sp.end()
	sp = parent.child("system.run")
	defer sp.end("kernel", c.kernel, "policy", policyFlag(c.policy))
	if c.sys.Net.Enabled() {
		return system.RunWorkloads(ws, c.policy, c.sys, g)
	}
	return system.RunWorkload(ws[0], c.policy, c.sys, g)
}

// runCell runs one cell and checks it. A failed or wrong cell counts as
// a failed operation rather than ending the run.
func (b *bench) runCell(c cellSpec, g *graph.Graph) *system.Result {
	b.attempted++
	root := b.spans.root("cell")
	defer root.end()
	res, err := b.simulate(root, c, g)
	if err == nil {
		err = b.gate.check(c.key(b.opts.workload), res)
	}
	if err != nil {
		b.fail(err)
		return nil
	}
	return res
}

// runSingleCell is the shared driver of the workloads that simulate one
// cell at a time: set-up generates the graph, the timed loop repeats
// the cell, and the traced run profiles one cell, then reruns it with
// telemetry attached. extra, if non-nil, runs last in a traced run.
func runSingleCell(b *bench, c cellSpec, minIters int, extra func(g *graph.Graph, profiledWall float64)) error {
	var g *graph.Graph
	var gen []float64
	err := b.measureSetup(setupSpan, func(int) error {
		root := b.spans.root("setup")
		defer root.end()
		t0 := time.Now()
		g = b.genGraph(root, c.scale, c.edgeFactor, c.graphSeed)
		gen = append(gen, time.Since(t0).Seconds())
		sp := root.child("kernels.new")
		defer sp.end()
		_, err := kernels.NewSized(c.kernel, c.reps)
		return err
	})
	if err != nil {
		return err
	}
	b.layer["graph.gen_s"] = median(gen)

	if !b.opts.trace {
		var warpOps float64
		walls := b.timedLoop(minIters, func() {
			if res := b.runCell(c, g); res != nil {
				warpOps = float64(res.GPU.WarpOps)
			}
		})
		b.e2e["wall_s"] = median(walls)
		b.e2e["warp_ops_per_s"] = warpOps / median(walls)
		b.e2e["op_p50_ms"] = 1000 * median(walls)
		return nil
	}

	var res *system.Result
	wall, err := b.profiled(func() { res = b.runCell(c, g) })
	if err != nil {
		return err
	}
	b.addResultCounters(res)

	tel := telemetry.New()
	traced := c
	traced.sys.Telemetry = tel
	t0 := time.Now()
	b.runCell(traced, g)
	b.layer["telemetry.overhead_s"] = time.Since(t0).Seconds() - wall
	b.addEngineProfile(tel, wall, !c.sys.Net.Enabled())
	if extra != nil {
		extra(g, wall)
	}
	return nil
}

// runCellPaper: one paper-profile cell, pagerank under CoolPIM-HW.
func runCellPaper(b *bench) error {
	p := experiments.PaperProfile()
	c := cellSpec{scale: p.Scale, edgeFactor: p.EdgeFactor, graphSeed: p.Seed,
		kernel: "pagerank", reps: p.Reps, policy: core.CoolPIMHW, sys: p.Sys}
	if b.opts.small {
		c.scale, c.reps, c.sys = 10, 1, experiments.ScaledConfig(10)
	}
	return runSingleCell(b, c, 3, nil)
}

// runMultiCube: four cubes in a chain on a two-shard engine, pagerank
// under CoolPIM-HW. The traced run adds the serial (one-shard) reference
// for sim.shard_speedup.
func runMultiCube(b *bench) error {
	scale := 13
	if b.opts.small {
		scale = 9
	}
	sys := experiments.ScaledConfig(scale)
	sys.Net = hmc.DefaultNetworkConfig()
	sys.Net.Cubes = 4
	sys.Net.Topology = hmc.TopoChain
	sys.Net.Shards = maxProcs
	c := cellSpec{scale: scale, edgeFactor: 8, graphSeed: experiments.PaperProfile().Seed,
		kernel: "pagerank", reps: 1, policy: core.CoolPIMHW, sys: sys}
	return runSingleCell(b, c, 3, func(g *graph.Graph, shardedWall float64) {
		serial := c
		serial.sys.Net.Shards = 1
		t0 := time.Now()
		b.runCell(serial, g)
		b.layer["sim.shard_speedup"] = time.Since(t0).Seconds() / shardedWall
	})
}

// runCampaignTest: the 50-cell test-profile matrix (10 kernels × 5
// policies) on RunMatrixOpts with two workers and no ledger.
func runCampaignTest(b *bench) error {
	p := experiments.TestProfile()
	opts := experiments.MatrixOpts{Workloads: kernels.Names(), Policies: core.Kinds(), Parallel: maxProcs}
	if b.opts.small {
		p.Scale, p.EdgeFactor = 9, 4
		opts.Workloads = []string{"dc", "bfs-ta"}
		opts.Policies = []core.PolicyKind{core.NonOffloading, core.CoolPIMHW}
	}
	err := b.measureSetup(setupSpan, func(int) error {
		root := b.spans.root("setup")
		defer root.end()
		b.genGraph(root, p.Scale, p.EdgeFactor, p.Seed)
		return nil
	})
	if err != nil {
		return err
	}
	b.layer["graph.gen_s"] = b.e2e["setup_s"]
	// RunMatrixOpts generates the graph through the profile's process-wide
	// cache; fill it now so no timed campaign pays for it.
	p.Graph()

	if !b.opts.trace {
		var warpOps float64
		walls := b.timedLoop(2, func() {
			rows, _ := b.campaign(p, opts)
			warpOps = sumWarpOps(rows)
		})
		b.e2e["wall_s"] = median(walls)
		b.e2e["warp_ops_per_s"] = warpOps / median(walls)
		b.e2e["op_p50_ms"] = 1000 * median(walls)
		return nil
	}

	var rows []experiments.Row
	var cellWalls []float64
	wall, err := b.profiled(func() { rows, cellWalls = b.campaign(p, opts) })
	if err != nil {
		return err
	}
	for _, r := range rows {
		for _, res := range r.Results {
			b.addResultCounters(res)
		}
	}
	var busy float64
	for _, w := range cellWalls {
		busy += w
	}
	p50, _ := percentile(cellWalls, 0.5)
	pmax, _ := percentile(cellWalls, 1)
	b.layer["runner.cell_s_p50"] = p50
	b.layer["runner.cell_s_max"] = pmax
	b.layer["runner.utilization"] = busy / (float64(opts.Parallel) * wall)
	b.layer["runner.idle_worker_s"] = float64(opts.Parallel)*wall - busy

	// A flight directory gives every cell its own telemetry hub, which is
	// how a campaign runs with telemetry on: one hub may not be shared by
	// concurrent cells.
	flightDir := filepath.Join(b.opts.outDir, "flight")
	if err := os.MkdirAll(flightDir, 0o755); err != nil {
		return err
	}
	traced := opts
	traced.FlightDir = flightDir
	t0 := time.Now()
	b.campaign(p, traced)
	b.layer["telemetry.overhead_s"] = time.Since(t0).Seconds() - wall
	return nil
}

// campaign runs one matrix, checks every cell and returns the rows and
// each cell's wall time in seconds.
func (b *bench) campaign(p experiments.Profile, opts experiments.MatrixOpts) ([]experiments.Row, []float64) {
	root := b.spans.root("experiments.matrix")
	defer root.end("cells", fmt.Sprint(len(opts.Workloads)*len(opts.Policies)))

	var mu sync.Mutex
	started := make(map[string]time.Time)
	var walls []float64
	opts.OnRunStart = func(key string, _ int) {
		mu.Lock()
		started[key] = time.Now()
		mu.Unlock()
	}
	opts.OnRunDone = func(key string, err error, _ bool) {
		now := time.Now()
		mu.Lock()
		start := started[key]
		mu.Unlock()
		walls = append(walls, now.Sub(start).Seconds())
		sp := root.childAt("runner.cell", start)
		sp.endAt(now, "cell", key)
	}
	rows, err := experiments.RunMatrixOpts(context.Background(), p, opts)
	for _, wl := range opts.Workloads {
		for _, pol := range opts.Policies {
			b.attempted++
			key := fmt.Sprintf("%s/test-s%d-ef%d-g%d-r%d/%s/%s", b.opts.workload, p.Scale, p.EdgeFactor, p.Seed, p.Reps, wl, policyFlag(pol))
			var res *system.Result
			if rows != nil {
				for _, r := range rows {
					if r.Workload == wl {
						res = r.Results[pol]
					}
				}
			}
			if cerr := b.gate.check(key, res); cerr != nil {
				if err != nil {
					cerr = fmt.Errorf("%w (campaign: %v)", cerr, err)
				}
				b.fail(cerr)
			}
		}
	}
	return rows, walls
}

func sumWarpOps(rows []experiments.Row) float64 {
	var n float64
	for _, r := range rows {
		for _, res := range r.Results {
			n += float64(res.GPU.WarpOps)
		}
	}
	return n
}
