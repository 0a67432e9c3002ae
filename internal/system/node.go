package system

import (
	"fmt"

	"coolpim/internal/core"
	"coolpim/internal/dram"
	"coolpim/internal/gpu"
	"coolpim/internal/graph"
	"coolpim/internal/hmc"
	"coolpim/internal/kernels"
	"coolpim/internal/sim"
	"coolpim/internal/telemetry"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

// nodeTelemetry is the set of telemetry streams a node emits into. Node
// 0 carries the run's streams when telemetry is enabled; every other
// node (and every node of an uninstrumented run) carries nil handles,
// which the telemetry layer treats as disabled.
type nodeTelemetry struct {
	trace       *telemetry.Tracer
	spans       *telemetry.SpanTracer
	flight      *telemetry.FlightRecorder
	tempHist    *telemetry.Histogram
	pimRateHist *telemetry.Histogram
	tickSpan    telemetry.SpanName
}

// nodeState is one cube node's full platform replica: GPU + cube +
// thermal stack + policy + workload, all scheduled exclusively on the
// node's engine.
type nodeState struct {
	id  int
	eng *sim.Engine
	w   kernels.Workload
	nodeTelemetry

	cube    *hmc.Cube
	dev     *gpu.GPU
	sw      *core.SWDynT
	hw      *core.HWDynT
	mhw     *core.MultiLevelHWDynT
	sms     int
	model   *thermal.Model
	coupler *thermalCoupler

	res          CubeResult
	finished     bool
	prevSample   hmc.Counters
	lastSampleAt units.Time
	// snap is the node's published snapshot behind the labeled
	// multi-cube metrics; nil on single-cube and uninstrumented runs.
	snap *cubeSnap
}

// newNode builds one node on eng. net is nil on a single-cube platform.
func newNode(id int, eng *sim.Engine, w kernels.Workload, policy core.PolicyKind, cfg Config,
	g *graph.Graph, net *hmc.Network, tel nodeTelemetry) (*nodeState, error) {
	// Steady-state queue depth is bounded by resident warps (each with
	// at most a couple of in-flight events) plus the HMC's in-flight
	// completions; pre-size once so the hot loop never regrows the
	// queue.
	eng.Reserve(2 * cfg.GPU.NumSMs * cfg.GPU.MaxWarpsPerSM)
	n := &nodeState{id: id, eng: eng, w: w, nodeTelemetry: tel, sms: cfg.GPU.NumSMs}
	n.res.Node = id
	space := kernels.SpaceFor(g)

	n.cube = hmc.New(eng, space, cfg.HMC)
	n.cube.DisableThermalEffects = policy.ThermalEffectsDisabled()
	n.cube.Trace = n.trace
	n.cube.SetSpans(n.spans)
	if net != nil {
		net.AttachNode(id, n.cube, space)
	}

	n.model = thermal.New(cfg.Stack, cfg.Cooling)
	pol, err := n.buildPolicy(policy, cfg)
	if err != nil {
		return nil, err
	}

	n.dev = gpu.New(eng, space, n.cube, pol, cfg.GPU)
	n.dev.PIMOffloadActive = policy != core.NonOffloading
	if net != nil {
		n.dev.SetNetwork(net, id)
	}
	n.dev.Trace = n.trace
	n.dev.SetSpans(n.spans)

	w.Setup(space, g)
	n.coupler = newThermalCoupler(n.cube, n.model, cfg)
	return n, nil
}

// buildPolicy constructs the node's throttling policy and records its
// initial pool size.
func (n *nodeState) buildPolicy(policy core.PolicyKind, cfg Config) (core.Policy, error) {
	var pol core.Policy
	initialPool := -1
	switch policy {
	case core.NonOffloading:
		pol = core.NewNonOffloading()
	case core.NaiveOffloading:
		pol = core.NewNaiveOffloading()
	case core.IdealThermal:
		pol = core.NewIdealThermal()
	case core.CoolPIMSW:
		prof := n.w.Profile()
		maxBlocks := cfg.GPU.NumSMs * cfg.GPU.MaxBlocksPerSM
		initialPool = core.InitialPTPSize(cfg.Throttle, cfg.PIMPeakRate,
			prof.PIMIntensity, maxBlocks, prof.DivergenceRatio)
		n.sw = core.NewSWDynT(n.eng, cfg.Throttle, initialPool)
		n.sw.Trace, n.sw.Spans = n.trace, n.spans
		n.trace.PoolInit(0, "sw-ptp", initialPool)
		pol = core.NewCoolPIMSW(n.sw)
	case core.CoolPIMHW:
		initialPool = cfg.GPU.NumSMs * cfg.GPU.MaxWarpsPerSM
		if cfg.MultiLevelHW {
			ml := cfg.MultiLevel
			if ml.CriticalFactor == 0 {
				ml = core.DefaultMultiLevelConfig()
				ml.Config = cfg.Throttle
			}
			n.mhw = core.NewMultiLevelHWDynT(n.eng, ml, cfg.GPU.NumSMs, cfg.GPU.MaxWarpsPerSM)
			n.mhw.Trace, n.mhw.Spans = n.trace, n.spans
			pol = core.NewCoolPIMHWMultiLevel(n.mhw, n.warnLevel)
		} else {
			n.hw = core.NewHWDynT(n.eng, cfg.Throttle, cfg.GPU.NumSMs, cfg.GPU.MaxWarpsPerSM)
			n.hw.Trace, n.hw.Spans = n.trace, n.spans
			pol = core.NewCoolPIMHW(n.hw)
		}
		n.trace.PoolInit(0, "hw-pcu", initialPool)
	default:
		return nil, fmt.Errorf("system: unknown policy %v", policy)
	}
	n.res.InitialPoolSize = initialPool
	return pol, nil
}

// warnLevel is the multi-level extension's reading of the node's stack:
// critical once the hottest DRAM cell passes the extended limit.
func (n *nodeState) warnLevel() core.WarningLevel {
	if n.model.PeakDRAM() > dram.ExtendedLimit {
		return core.WarnCritical
	}
	return core.WarnNormal
}

// poolSize is SW-DynT's token-pool size or HW-DynT's total PIM-enabled
// warp count, -1 for static policies.
func (n *nodeState) poolSize() int {
	switch {
	case n.sw != nil:
		return n.sw.Pool().Size()
	case n.hw != nil:
		total := 0
		for s := 0; s < n.sms; s++ {
			total += n.hw.Limit(s)
		}
		return total
	case n.mhw != nil:
		total := 0
		for s := 0; s < n.sms; s++ {
			total += n.mhw.Limit(s)
		}
		return total
	}
	return -1
}

func (n *nodeState) warnStats() (seen, applied, critical uint64) {
	switch {
	case n.sw != nil:
		seen, applied = n.sw.Warnings()
	case n.hw != nil:
		seen, applied = n.hw.Warnings()
	case n.mhw != nil:
		seen, applied, critical = n.mhw.Warnings()
	}
	return
}

// registerMetrics exposes a single-cube run's live metrics. The
// callbacks read the node directly: on one engine, scrapes run between
// events.
func (n *nodeState) registerMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("coolpim_pim_ops_total",
		"PIM operations executed in the cube's vault ALUs",
		func() float64 { return float64(n.cube.Counters().PIMOps) })
	reg.CounterFunc("coolpim_ext_data_bytes_total",
		"data bytes moved over the external SerDes links",
		func() float64 { return float64(n.cube.Counters().ExtDataBytes) })
	reg.CounterFunc("coolpim_req_flits_total",
		"request-link FLITs transferred",
		func() float64 { return float64(n.cube.Counters().ReqFlits) })
	reg.CounterFunc("coolpim_resp_flits_total",
		"response-link FLITs transferred",
		func() float64 { return float64(n.cube.Counters().RespFlits) })
	reg.CounterFunc("coolpim_thermal_warnings_total",
		"thermal-warning responses delivered to the source throttle",
		func() float64 { s, _, _ := n.warnStats(); return float64(s) })
	reg.CounterFunc("coolpim_control_updates_total",
		"delayed control updates the throttling mechanism applied",
		func() float64 { _, a, _ := n.warnStats(); return float64(a) })
	reg.CounterFunc("coolpim_gpu_warp_ops_total",
		"warp instructions issued by the GPU",
		func() float64 { return float64(n.dev.Stats().WarpOps) })
	reg.CounterFunc("coolpim_gpu_pim_blocks_total",
		"thread blocks launched on the PIM-enabled kernel",
		func() float64 { return float64(n.dev.Stats().PIMBlocks) })
	reg.CounterFunc("coolpim_gpu_nonpim_blocks_total",
		"thread blocks launched on the non-PIM shadow kernel",
		func() float64 { return float64(n.dev.Stats().NonPIMBlocks) })
	reg.GaugeFunc("coolpim_pool_size",
		"SW-DynT token-pool size or HW-DynT total PIM-enabled warps (-1 for static policies)",
		func() float64 { return float64(n.poolSize()) })
	reg.GaugeFunc("coolpim_peak_dram_celsius",
		"hottest DRAM temperature observed so far",
		func() float64 { return float64(n.res.PeakDRAM) })
}

// start schedules the node's thermal coupling, sampler and workload
// driver — plus, on the node that owns telemetry, the telemetry series
// and live snapshot publication.
func (n *nodeState) start(cfg Config, tel *telemetry.Telemetry) {
	dt := cfg.ThermalTick
	n.eng.EveryNamed(dt, "thermal", func(now units.Time) bool {
		n.thermalTick(now, dt)
		return !n.finished
	})

	// Time-series sampling. Windows tile [0, Runtime] exactly: the
	// ticker records full SampleInterval windows while the workload
	// runs, and flushTail records the final partial window at workload
	// end, scaled to its true width.
	n.eng.EveryNamed(cfg.SampleInterval, "sampler", func(now units.Time) bool {
		if n.finished {
			return false
		}
		n.sample(now, cfg.SampleInterval)
		return true
	})

	if n.id == 0 && tel.Enabled() {
		n.startTelemetry(cfg, tel)
	}

	// Workload driver: chain launches through OnComplete.
	var runNext func(now units.Time)
	runNext = func(units.Time) {
		l, ok := n.w.NextLaunch()
		if !ok {
			n.finished = true
			n.res.Runtime = n.eng.Now()
			n.flushTail(n.res.Runtime)
			return
		}
		n.res.Launches++
		l.OnComplete = func(units.Time) {
			n.eng.AfterNamed(cfg.LaunchOverhead, "driver", runNext)
		}
		n.dev.RunKernel(l)
	}
	n.eng.AfterNamed(0, "driver", runNext)
}

// thermalTick is the node's per-tick power→thermal feedback. The
// coupler half is pinned at zero allocations by
// TestApplyPowerTickZeroAllocs; the telemetry calls are no-ops on nil
// handles.
//
//coolpim:hotpath
func (n *nodeState) thermalTick(now, dt units.Time) {
	sp := n.spans.StartSpan(now, n.tickSpan)
	temp := n.coupler.tick(dt)
	if temp > n.res.PeakDRAM {
		n.res.PeakDRAM = temp
	}
	n.tempHist.Observe(float64(temp))
	n.flight.Thermal(now, temp)
	n.cube.SetTemperature(now, temp)
	if n.snap != nil {
		n.snap.publish(n)
	}
	sp.End(now)
}

// sample records one Result.Series window of width dt ending at now.
func (n *nodeState) sample(now, dt units.Time) {
	ctr := n.cube.Counters()
	d := deltaCounters(ctr, n.prevSample)
	n.prevSample = ctr
	rate := units.OpsPerNs(float64(d.PIMOps) / dt.Nanoseconds())
	n.pimRateHist.Observe(float64(rate))
	n.res.Series = append(n.res.Series, Sample{
		At:       now,
		PIMRate:  rate,
		ExtBW:    units.BytesPerSecond(float64(d.ExtDataBytes) / dt.Seconds()),
		PeakDRAM: n.model.PeakDRAM(),
		PoolSize: n.poolSize(),
	})
	n.lastSampleAt = now
}

// flushTail records the final partial sample window ending at now.
func (n *nodeState) flushTail(now units.Time) {
	if dt := now - n.lastSampleAt; dt > 0 {
		n.sample(now, dt)
	}
}

// startTelemetry registers the telemetry series columns — windowed
// offload rate and external bandwidth, live temperature and pool size,
// aligned on the telemetry cadence — and the live snapshot publisher.
func (n *nodeState) startTelemetry(cfg Config, tel *telemetry.Telemetry) {
	sampleEvery := cfg.TelemetrySample
	if sampleEvery <= 0 {
		sampleEvery = cfg.SampleInterval
	}
	var prevTel, dTel hmc.Counters
	// The first column computes the window delta the others share;
	// columns are evaluated in registration order.
	tel.Series.AddColumn("pim_rate_ops_per_ns", func(units.Time) float64 {
		ctr := n.cube.Counters()
		dTel = deltaCounters(ctr, prevTel)
		prevTel = ctr
		return float64(dTel.PIMOps) / sampleEvery.Nanoseconds()
	})
	tel.Series.AddColumn("ext_bw_gbps", func(units.Time) float64 {
		return float64(dTel.ExtDataBytes) / sampleEvery.Seconds() / 1e9
	})
	tel.Series.AddColumn("peak_dram_c", func(units.Time) float64 {
		return float64(n.model.PeakDRAM())
	})
	tel.Series.AddColumn("pool_size", func(units.Time) float64 {
		return float64(n.poolSize())
	})
	tel.Series.Start(n.eng, sampleEvery, func() bool { return n.finished })

	// Live snapshot publication. The extra "diag" ticker events do not
	// perturb determinism: they only read state, and the relative
	// (at, seq) order of all other events is unchanged — the
	// race-enabled byte-identity test in diagserver pins this.
	if tel.Sink != nil {
		publishEvery := tel.PublishEvery
		if publishEvery <= 0 {
			publishEvery = cfg.SampleInterval
		}
		n.eng.EveryNamed(publishEvery, "diag", func(now units.Time) bool {
			tel.Publish(now)
			return !n.finished
		})
	}
}

// finish closes the node's books after the run. A node the run cut
// short — it shut down, or the cluster halted on another node's
// shutdown — ends its runtime and series where its engine stopped.
func (n *nodeState) finish() {
	if n.res.Shutdown || !n.finished {
		n.res.Runtime = n.eng.Now()
		n.flushTail(n.res.Runtime)
	}
	// A run that ends before its first thermal tick never recorded a
	// peak; the model's (ambient) reading covers it.
	if temp := n.model.PeakDRAM(); temp > n.res.PeakDRAM {
		n.res.PeakDRAM = temp
	}
	ctr := n.cube.Counters()
	n.res.HMC = ctr
	n.res.PIMOps = ctr.PIMOps
	n.res.ExtDataBytes = ctr.ExtDataBytes
	if n.res.Runtime > 0 {
		n.res.AvgPIMRate = units.OpsPerNs(float64(ctr.PIMOps) / n.res.Runtime.Nanoseconds())
		n.res.AvgExtBW = units.BytesPerSecond(float64(ctr.ExtDataBytes) / n.res.Runtime.Seconds())
	}
	n.res.GPU = n.dev.Stats()
	n.res.L2 = n.dev.L2Stats()
	n.res.FinalPoolSize = n.poolSize()
	n.res.WarningsSeen, n.res.ControlUpdates, n.res.CriticalWarnings = n.warnStats()
}
