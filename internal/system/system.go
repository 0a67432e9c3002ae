// Package system wires the full evaluation platform together — GPU,
// HMC cube, power model, thermal RC network and throttling policy — and
// drives a graph workload through it, producing the statistics every
// figure of the paper's evaluation section is built from: runtime
// (speedup), external bandwidth, average PIM offloading rate, peak DRAM
// temperature, and the PIM-rate/temperature time series of Fig. 14.
package system

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"coolpim/internal/cache"
	"coolpim/internal/core"
	"coolpim/internal/gpu"
	"coolpim/internal/graph"
	"coolpim/internal/hmc"
	"coolpim/internal/kernels"
	"coolpim/internal/power"
	"coolpim/internal/sim"
	"coolpim/internal/telemetry"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

// Config is the full-system configuration (Table IV plus the thermal
// stack and throttling parameters).
type Config struct {
	GPU      gpu.Config
	HMC      hmc.Config
	Stack    thermal.StackConfig
	Cooling  thermal.Cooling
	Power    power.Model
	Throttle core.Config

	// Net describes the multi-cube HMC network. The zero value (and any
	// Cubes <= 1) disables it: the run builds one platform node on a
	// plain event engine. When enabled, RunWorkloads builds one node per
	// cube, joins them with the link topology and shards the event
	// engine (multicube.go).
	Net hmc.NetworkConfig

	// PIMPeakRate is the platform's peak offloading rate used by Eq. 1.
	// The paper measures it "by performing a simple trial run on the
	// target platform": on this simulated host the most PIM-intensive
	// kernels sustain ≈3.2 op/ns at full offload (the paper's testbed
	// reached ~4; its thermal-limited hardware maximum is 6.5).
	PIMPeakRate units.OpsPerNs

	// ThermalTick is the coupling interval between the activity
	// counters, power model and RC network: the RC network is stepped
	// once per tick.
	ThermalTick units.Time
	// SampleInterval is the time-series sampling period (Fig. 14).
	SampleInterval units.Time
	// LaunchOverhead is the host-side gap between kernel launches.
	LaunchOverhead units.Time
	// MaxSimTime aborts runaway simulations.
	MaxSimTime units.Time

	// Telemetry, when non-nil, enables the observability layer for the
	// run: the cube, GPU and throttling mechanism record spans and
	// marks, the registry exposes live metrics, and the engine profiles
	// per-component handler time. Nil (the default) disables all of it
	// at zero hot-path cost.
	Telemetry *telemetry.Telemetry

	// MultiLevelHW enables the paper's footnote-4 extension for the
	// CoolPIMHW policy: a second (critical) thermal error state above
	// 95 °C that applies an emergency PCU reduction and bypasses the
	// delayed-control-update window.
	MultiLevelHW bool
	// MultiLevel carries the extension parameters (used only when
	// MultiLevelHW is set; zero value falls back to defaults).
	MultiLevel core.MultiLevelConfig
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	throttle := core.DefaultConfig()
	// The coupled platform's safe offloading rate is ~1.1 op/ns (the
	// analytic cube-only threshold of Fig. 5 is 1.3; rates on this
	// platform run ~0.65× the paper's — see EXPERIMENTS.md).
	throttle.TargetPIMRate = 1.1
	return Config{
		GPU:            gpu.DefaultConfig(),
		HMC:            hmc.DefaultConfig(),
		Stack:          thermal.HMC20Stack(),
		Cooling:        thermal.CommodityServer,
		Power:          power.HMC20System(),
		Throttle:       throttle,
		PIMPeakRate:    3.2,
		ThermalTick:    10 * units.Microsecond,
		SampleInterval: 100 * units.Microsecond,
		LaunchOverhead: 2 * units.Microsecond,
		MaxSimTime:     2 * units.Second,
	}
}

// cubes is the number of platform nodes the configuration builds.
func (c Config) cubes() int {
	if c.Net.Enabled() {
		return c.Net.Cubes
	}
	return 1
}

// Sample is one time-series point.
type Sample struct {
	At       units.Time
	PIMRate  units.OpsPerNs // windowed offloading rate
	ExtBW    units.BytesPerSecond
	PeakDRAM units.Celsius
	// PoolSize is SW-DynT's PTP size (or the HW-DynT total PIM-enabled
	// warp count), -1 for static policies.
	PoolSize int
}

// WriteSeriesCSV writes a time series as CSV, one row per sample — the
// machine-readable form of the paper's Fig. 8/14 temperature/PIM-rate
// traces:
//
//	t_ms,pim_rate_ops_per_ns,ext_bw_gbps,peak_dram_c,pool_size
//	0.100000,1.2345,187.2,61.5,1024
func WriteSeriesCSV(w io.Writer, series []Sample) error {
	var sb strings.Builder
	sb.WriteString("t_ms,pim_rate_ops_per_ns,ext_bw_gbps,peak_dram_c,pool_size\n")
	for _, s := range series {
		fmt.Fprintf(&sb, "%.6f,%s,%s,%s,%d\n", s.At.Milliseconds(),
			strconv.FormatFloat(float64(s.PIMRate), 'g', -1, 64),
			strconv.FormatFloat(float64(s.ExtBW)/1e9, 'g', -1, 64),
			strconv.FormatFloat(float64(s.PeakDRAM), 'g', -1, 64),
			s.PoolSize)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Result holds everything a run produces.
type Result struct {
	Workload string
	Policy   core.PolicyKind
	Cooling  string

	Runtime  units.Time
	Launches int

	// Totals over the run.
	PIMOps       uint64
	ExtDataBytes uint64
	ReqFlits     uint64
	RespFlits    uint64

	// AvgPIMRate is PIMOps/Runtime (Fig. 12); AvgExtBW is
	// ExtDataBytes/Runtime (Fig. 11 numerator).
	AvgPIMRate units.OpsPerNs
	AvgExtBW   units.BytesPerSecond

	// PeakDRAM is the hottest DRAM temperature observed (Fig. 13).
	PeakDRAM units.Celsius

	WarningsSeen     uint64
	ControlUpdates   uint64
	CriticalWarnings uint64 // multi-level extension only
	GPU              gpu.Stats
	L2               cache.Stats
	HMC              hmc.Counters
	Shutdown         bool
	VerifyErr        error
	Series           []Sample
	FinalPoolSize    int
	InitialPoolSize  int

	// Multi-cube runs only: per-node results and the final per-link FLIT
	// occupancy of the inter-cube network (empty for single-cube runs).
	PerCube []CubeResult
	Links   []hmc.LinkStat
}

// Speedup returns base.Runtime / r.Runtime.
func (r *Result) Speedup(base *Result) float64 {
	if r.Runtime <= 0 {
		return 0
	}
	return float64(base.Runtime) / float64(r.Runtime)
}

// NormalizedBW returns r's average bandwidth over base's (Fig. 11).
func (r *Result) NormalizedBW(base *Result) float64 {
	if base.AvgExtBW <= 0 {
		return 0
	}
	return float64(r.AvgExtBW) / float64(base.AvgExtBW)
}

// Run executes one workload under one policy and returns its result.
// It builds one workload replica per cube node and dispatches to
// RunWorkloads.
func Run(workloadName string, policy core.PolicyKind, cfg Config, g *graph.Graph) (*Result, error) {
	ws := make([]kernels.Workload, cfg.cubes())
	for i := range ws {
		w, err := kernels.New(workloadName)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return RunWorkloads(ws, policy, cfg, g)
}

// RunWorkload is Run for an already-constructed workload on a
// single-cube platform: the one-node case of RunWorkloads. Multi-cube
// configurations need one workload replica per node.
func RunWorkload(w kernels.Workload, policy core.PolicyKind, cfg Config, g *graph.Graph) (*Result, error) {
	return RunWorkloads([]kernels.Workload{w}, policy, cfg, g)
}

// RunWorkloads builds the platform — one full node (GPU + cube +
// thermal stack + policy + its own workload instance) per cube — runs
// it, and reports the result. ws holds one workload per node: replicas
// of the same benchmark, each with its own functional memory.
//
// A single cube runs on a plain event engine and its Result is the
// node's own (PerCube and Links stay nil). With a multi-cube network
// the nodes are joined by the cfg.Net link topology, each on its own
// engine shard under the cluster's conservative barrier, and the
// Result aggregates the per-node results (multicube.go).
func RunWorkloads(ws []kernels.Workload, policy core.PolicyKind, cfg Config, g *graph.Graph) (*Result, error) {
	if cfg.Net.Enabled() {
		if err := cfg.Net.Validate(); err != nil {
			return nil, err
		}
	}
	cubes := cfg.cubes()
	if len(ws) != cubes {
		return nil, fmt.Errorf("system: %d workload replicas for %d cube(s)", len(ws), cubes)
	}

	// One engine per node: a plain engine for a single cube; the
	// cluster's domains, joined by the link network, for several.
	var cl *sim.Cluster
	var net *hmc.Network
	var engines []*sim.Engine
	if cubes == 1 {
		engines = append(engines, sim.New())
	} else {
		var err error
		if cl, err = sim.NewCluster(cfg.Net.LinkLatency, cubes); err != nil {
			return nil, err
		}
		cl.SetShards(cfg.Net.Shards)
		if net, err = hmc.NewNetwork(cl, cfg.Net); err != nil {
			return nil, err
		}
		for i := 0; i < cubes; i++ {
			engines = append(engines, cl.Domain(i))
		}
	}

	// Node 0 owns the telemetry plane: its engine is profiled, and its
	// cube, GPU, policy and thermal loop emit the span stream.
	tel := cfg.Telemetry
	var probe nodeTelemetry
	if tel.Enabled() {
		probe = nodeTelemetry{spans: tel.Spans, flight: tel.Flight}
		engines[0].SetObserver(tel.Profile())
		// The cube (and the network) open one span per request, and
		// backpressure can mark every request; at full scale that floods
		// the capped span store within the first few hundred
		// microseconds and silently evicts the rare control-plane spans
		// (throttle reactions) that only arrive once the stack heats up.
		// Keep one representative record per thermal tick per name
		// instead, and count the rest.
		names := []string{"hmc.read", "hmc.write", "hmc.pim", "link.backpressure"}
		if net != nil {
			names = append(names, net.SpanNames()...)
		}
		for _, name := range names {
			probe.spans.SetMinGap(probe.spans.Name(name), cfg.ThermalTick)
		}
		// The flight recorder (when attached) shadows the span stream so
		// a crashing run carries its recent history.
		probe.spans.SetFlight(probe.flight)
	}
	if net != nil {
		net.SetSpans(probe.spans)
	}

	nodes := make([]*nodeState, cubes)
	for i := range nodes {
		var nt nodeTelemetry
		if i == 0 {
			nt = probe
		}
		n, err := newNode(i, engines[i], ws[i], policy, cfg, g, net, nt)
		if err != nil {
			return nil, err
		}
		n.cube.OnShutdown = func(units.Time) {
			// Per-node flag, run-wide stop: the node's own engine halts
			// immediately, every other node at the cluster barrier.
			n.res.Shutdown = true
			if cl != nil {
				cl.Halt()
			}
			n.eng.Halt()
		}
		nodes[i] = n
	}

	// Telemetry instruments. Both histograms stay nil when telemetry is
	// disabled; Observe on a nil histogram is a no-op.
	if tel.Enabled() {
		reg := tel.Registry
		of := "" // which node the histograms sample
		if cubes == 1 {
			nodes[0].registerMetrics(reg)
		} else {
			registerCubeMetrics(reg, nodes)
			of = " (node 0)"
		}
		nodes[0].tempHist = reg.Histogram("coolpim_dram_temp_celsius",
			"peak DRAM temperature sampled every thermal tick"+of,
			telemetry.LinearBounds(60, 2.5, 20))
		nodes[0].pimRateHist = reg.Histogram("coolpim_pim_rate_ops_per_ns",
			"windowed PIM offloading rate per sample interval"+of,
			telemetry.LinearBounds(0.25, 0.25, 16))
		nodes[0].tickSpan = probe.spans.Name("thermal.tick")
	}

	for _, n := range nodes {
		n.start(cfg, tel)
	}

	var end units.Time
	if cl != nil {
		end = cl.RunUntil(cfg.MaxSimTime)
	} else {
		end = engines[0].RunUntil(cfg.MaxSimTime)
	}

	shutdown := false
	for _, n := range nodes {
		shutdown = shutdown || n.res.Shutdown
	}
	for _, n := range nodes {
		if !n.finished && !shutdown {
			return nil, fmt.Errorf("system: %s/%v node %d did not finish within %v (simulated %v)",
				n.w.Name(), policy, n.id, cfg.MaxSimTime, n.eng.Now())
		}
		n.finish()
	}

	res := &Result{
		Workload: ws[0].Name(),
		Policy:   policy,
		Cooling:  cfg.Cooling.Name,
	}
	if cubes == 1 {
		res.setNode(&nodes[0].res)
	} else {
		res.PerCube = make([]CubeResult, cubes)
		for i, n := range nodes {
			res.PerCube[i] = n.res
		}
		aggregate(res, nodes)
		res.Links = net.Links()
	}
	if !shutdown {
		for _, n := range nodes {
			if err := n.w.Verify(); err != nil {
				if cubes > 1 {
					err = fmt.Errorf("node %d: %w", n.id, err)
				}
				res.VerifyErr = err
				break
			}
		}
	}
	// Final snapshot so a held-open diag server shows end-of-run state.
	tel.Publish(end)
	return res, nil
}

// setNode fills a single-cube Result from its only node.
func (r *Result) setNode(c *CubeResult) {
	r.Runtime = c.Runtime
	r.Launches = c.Launches
	r.PIMOps = c.PIMOps
	r.ExtDataBytes = c.ExtDataBytes
	r.ReqFlits = c.HMC.ReqFlits
	r.RespFlits = c.HMC.RespFlits
	r.AvgPIMRate = c.AvgPIMRate
	r.AvgExtBW = c.AvgExtBW
	r.PeakDRAM = c.PeakDRAM
	r.WarningsSeen = c.WarningsSeen
	r.ControlUpdates = c.ControlUpdates
	r.CriticalWarnings = c.CriticalWarnings
	r.GPU = c.GPU
	r.L2 = c.L2
	r.HMC = c.HMC
	r.Shutdown = c.Shutdown
	r.Series = c.Series
	r.FinalPoolSize = c.FinalPoolSize
	r.InitialPoolSize = c.InitialPoolSize
}

func deltaCounters(cur, prev hmc.Counters) hmc.Counters {
	return hmc.Counters{
		Reads:                cur.Reads - prev.Reads,
		Writes:               cur.Writes - prev.Writes,
		PIMOps:               cur.PIMOps - prev.PIMOps,
		ExtDataBytes:         cur.ExtDataBytes - prev.ExtDataBytes,
		InternalRegularBytes: cur.InternalRegularBytes - prev.InternalRegularBytes,
		ReqFlits:             cur.ReqFlits - prev.ReqFlits,
		RespFlits:            cur.RespFlits - prev.RespFlits,
	}
}

func activityFor(d hmc.Counters, dt units.Time) power.Activity {
	return power.Activity{
		ExternalBW:        units.BytesPerSecond(float64(d.ExtDataBytes) / dt.Seconds()),
		InternalRegularBW: units.BytesPerSecond(float64(d.InternalRegularBytes) / dt.Seconds()),
		PIMRate:           units.OpsPerNs(float64(d.PIMOps) / dt.Nanoseconds()),
	}
}
