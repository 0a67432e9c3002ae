package system

import (
	"math"
	"strconv"
	"sync/atomic"

	"coolpim/internal/cache"
	"coolpim/internal/gpu"
	"coolpim/internal/hmc"
	"coolpim/internal/telemetry"
	"coolpim/internal/units"
)

// CubeResult is one node's view of a run: its own GPU, cube, thermal
// stack and policy — the same observables a single-cube Result reports
// (and is filled from), per node.
type CubeResult struct {
	Node     int
	Runtime  units.Time
	Launches int

	PIMOps       uint64
	ExtDataBytes uint64
	AvgPIMRate   units.OpsPerNs
	AvgExtBW     units.BytesPerSecond
	PeakDRAM     units.Celsius

	WarningsSeen     uint64
	ControlUpdates   uint64
	CriticalWarnings uint64
	GPU              gpu.Stats
	L2               cache.Stats
	HMC              hmc.Counters
	Shutdown         bool
	FinalPoolSize    int
	InitialPoolSize  int
	Series           []Sample
}

// cubeSnap is a node's atomically published telemetry snapshot. Nodes
// other than 0 execute on their own engine shard, so node 0's registry
// callbacks (which may run while other shards are mid-window) must not
// read their cubes directly; every node stores a snapshot on its
// thermal tick instead, and the labeled metrics read only these.
type cubeSnap struct {
	ctr  atomic.Pointer[hmc.Counters]
	temp atomic.Uint64 // Float64bits of the node's fresh peak DRAM
	pool atomic.Int64
}

func (s *cubeSnap) counters() hmc.Counters {
	if p := s.ctr.Load(); p != nil {
		return *p
	}
	return hmc.Counters{}
}

// publish stores the node's current counters, peak and pool size; the
// node calls it on its thermal tick.
func (s *cubeSnap) publish(n *nodeState) {
	ctr := n.cube.Counters()
	s.ctr.Store(&ctr)
	s.temp.Store(math.Float64bits(float64(n.res.PeakDRAM)))
	s.pool.Store(int64(n.poolSize()))
}

// registerCubeMetrics gives every node a snapshot and exposes the
// per-cube labeled series on node 0's registry, each reading only its
// node's atomic snapshot. The label value is interned once here — no
// per-scrape formatting.
func registerCubeMetrics(reg *telemetry.Registry, nodes []*nodeState) {
	for _, n := range nodes {
		snap := &cubeSnap{}
		snap.pool.Store(int64(n.res.InitialPoolSize))
		n.snap = snap
		id := strconv.Itoa(n.id)
		reg.CounterFuncLabeled("coolpim_pim_ops_total",
			"PIM operations executed in the cube's vault ALUs",
			"cube", id, func() float64 { return float64(snap.counters().PIMOps) })
		reg.CounterFuncLabeled("coolpim_ext_data_bytes_total",
			"data bytes moved over the external SerDes links",
			"cube", id, func() float64 { return float64(snap.counters().ExtDataBytes) })
		reg.CounterFuncLabeled("coolpim_req_flits_total",
			"request-link FLITs transferred",
			"cube", id, func() float64 { return float64(snap.counters().ReqFlits) })
		reg.CounterFuncLabeled("coolpim_resp_flits_total",
			"response-link FLITs transferred",
			"cube", id, func() float64 { return float64(snap.counters().RespFlits) })
		reg.GaugeFuncLabeled("coolpim_peak_dram_celsius",
			"hottest DRAM temperature observed so far",
			"cube", id, func() float64 { return math.Float64frombits(snap.temp.Load()) })
		reg.GaugeFuncLabeled("coolpim_pool_size",
			"SW-DynT token-pool size or HW-DynT total PIM-enabled warps (-1 for static policies)",
			"cube", id, func() float64 { return float64(snap.pool.Load()) })
	}
}

// aggregate folds the per-node results into the run-level totals: sums
// for activity counters, max for runtime and temperature, index-aligned
// merge for the time series.
func aggregate(res *Result, nodes []*nodeState) {
	longest := 0
	for _, n := range nodes {
		r := &n.res
		if r.Runtime > res.Runtime {
			res.Runtime = r.Runtime
		}
		res.Launches += r.Launches
		res.PIMOps += r.PIMOps
		res.ExtDataBytes += r.ExtDataBytes
		res.ReqFlits += r.HMC.ReqFlits
		res.RespFlits += r.HMC.RespFlits
		if r.PeakDRAM > res.PeakDRAM {
			res.PeakDRAM = r.PeakDRAM
		}
		res.WarningsSeen += r.WarningsSeen
		res.ControlUpdates += r.ControlUpdates
		res.CriticalWarnings += r.CriticalWarnings
		res.Shutdown = res.Shutdown || r.Shutdown
		addCounters(&res.HMC, r.HMC)
		addGPUStats(&res.GPU, r.GPU)
		res.L2.Hits += r.L2.Hits
		res.L2.Misses += r.L2.Misses
		res.L2.Fills += r.L2.Fills
		res.L2.Evictions += r.L2.Evictions
		res.L2.Writebacks += r.L2.Writebacks
		if len(r.Series) > len(nodes[longest].res.Series) {
			longest = n.id
		}
	}
	res.InitialPoolSize = nodes[0].res.InitialPoolSize
	res.FinalPoolSize = nodes[0].res.FinalPoolSize
	if res.Runtime > 0 {
		res.AvgPIMRate = units.OpsPerNs(float64(res.PIMOps) / res.Runtime.Nanoseconds())
		res.AvgExtBW = units.BytesPerSecond(float64(res.ExtDataBytes) / res.Runtime.Seconds())
	}

	// Merged series: index-aligned across nodes (they sample on one
	// shared cadence) — rates and bandwidth sum, temperature takes the
	// hottest cube, pool size sums across dynamic policies. Timestamps
	// come from the longest node's series.
	ref := nodes[longest].res.Series
	res.Series = make([]Sample, len(ref))
	for i := range ref {
		s := Sample{At: ref[i].At, PoolSize: -1}
		pool := 0
		dynamic := false
		for _, n := range nodes {
			if i >= len(n.res.Series) {
				continue
			}
			p := n.res.Series[i]
			s.PIMRate += p.PIMRate
			s.ExtBW += p.ExtBW
			if p.PeakDRAM > s.PeakDRAM {
				s.PeakDRAM = p.PeakDRAM
			}
			if p.PoolSize >= 0 {
				pool += p.PoolSize
				dynamic = true
			}
		}
		if dynamic {
			s.PoolSize = pool
		}
		res.Series[i] = s
	}
}

func addCounters(dst *hmc.Counters, d hmc.Counters) {
	dst.Reads += d.Reads
	dst.Writes += d.Writes
	dst.PIMOps += d.PIMOps
	dst.ExtDataBytes += d.ExtDataBytes
	dst.InternalRegularBytes += d.InternalRegularBytes
	dst.ReqFlits += d.ReqFlits
	dst.RespFlits += d.RespFlits
	dst.ReadLatencySum += d.ReadLatencySum
	dst.WriteLatencySum += d.WriteLatencySum
	dst.PIMLatencySum += d.PIMLatencySum
	dst.BankQueueSum += d.BankQueueSum
	dst.LinkQueueSum += d.LinkQueueSum
	dst.BusQueueSum += d.BusQueueSum
	dst.RespQueueSum += d.RespQueueSum
}

func addGPUStats(dst *gpu.Stats, d gpu.Stats) {
	dst.WarpOps += d.WarpOps
	dst.DivergentOps += d.DivergentOps
	dst.ComputeOps += d.ComputeOps
	dst.LoadOps += d.LoadOps
	dst.StoreOps += d.StoreOps
	dst.AtomicOps += d.AtomicOps
	dst.PIMLaneOps += d.PIMLaneOps
	dst.HostLaneOps += d.HostLaneOps
	dst.PIMBlocks += d.PIMBlocks
	dst.NonPIMBlocks += d.NonPIMBlocks
	dst.LoadLines += d.LoadLines
	dst.StoreLines += d.StoreLines
	dst.UncachedLines += d.UncachedLines
	dst.LoadWaitTotal += d.LoadWaitTotal
	dst.AtomicStall += d.AtomicStall
	dst.AtomicWait += d.AtomicWait
	dst.ComputeBusy += d.ComputeBusy
}
