package system

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"coolpim/internal/core"
	"coolpim/internal/graph"
	"coolpim/internal/hmc"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

// TestResultBytesPinned pins the sha256 of the complete %+v rendering
// of Result (mcFingerprint) for a spread of cells: every policy family,
// the multi-level HW extension, thermal shutdown on one and two cubes,
// and a two-cube chain. Any change to what a run reports — one counter,
// one series sample, one bit of a temperature — fails it, so changes to
// the platform wiring must keep these hashes.
func TestResultBytesPinned(t *testing.T) {
	// fast scales the stack's heat capacities down so the small test
	// graph heats past the warning, critical and shutdown thresholds
	// within its short runtime.
	fast := func(cfg Config, capScale float64, cooling thermal.Cooling) Config {
		cfg.Stack.CellCap *= capScale
		cfg.Stack.SinkCap *= capScale
		cfg.Cooling = cooling
		return cfg
	}
	weak := func(r float64) thermal.Cooling {
		return thermal.Cooling{Name: "weak", SinkResistance: units.ThermalResistance(r), FanPowerRel: 1}
	}
	multiLevel := fast(thrashCfg(), 0.03, weak(3))
	multiLevel.MultiLevelHW = true
	extremeHeat := thrashCfg() // TestShutdownOnExtremeHeat's configuration
	extremeHeat.Cooling = thermal.Cooling{Name: "none", SinkResistance: 12.0}
	chain2 := mcConfig(hmc.TopoChain, 2, 0)

	cases := []struct {
		name     string
		workload string
		policy   core.PolicyKind
		cfg      Config
		g        *graph.Graph
		shutdown bool
		want     string
	}{
		{"dc/non-offloading", "dc", core.NonOffloading, thrashCfg(), testGraph, false,
			"dcedc117b066f6892f59943fa81aec7ac84606f9e00b258c3b143ef4baf7400d"},
		{"pagerank/coolpim-hw", "pagerank", core.CoolPIMHW, thrashCfg(), testGraph, false,
			"c172a74cfcf9810731a56f080cfb2a82626cfb508f3ed7ad13c5514f59869057"},
		{"sssp-twc/coolpim-sw", "sssp-twc", core.CoolPIMSW, thrashCfg(), testGraph, false,
			"1174ea75fb7c82ce84ab62b2e6b43ab99c9f22efbf2fe097a39100643320e7fb"},
		{"dc/coolpim-hw-multilevel", "dc", core.CoolPIMHW, multiLevel, testGraph, false,
			"7e9960046ca3b8bc6f3891494b1e446e6ff1705215bed9eb38c194d88e7ddd39"},
		{"dc/naive-extreme-heat", "dc", core.NaiveOffloading, extremeHeat, testGraph, false,
			"9bb8c86ca0b047465f2c590d97892cbc08d3618176320d14f0b4de5e8d2610de"},
		{"dc/naive-shutdown", "dc", core.NaiveOffloading, fast(thrashCfg(), 0.01, weak(1)), testGraph, true,
			"b08e541dc4080d775ebc95326976ef49160a7854226a11957be06dc650922892"},
		{"dc/coolpim-hw-2chain", "dc", core.CoolPIMHW, chain2, mcGraph, false,
			"8f0ef35d8849e74514c1a77d84dd59f52fde388fb0bc77fd971f88ef5efa8980"},
		{"dc/naive-2chain-shutdown", "dc", core.NaiveOffloading, fast(chain2, 0.01, weak(3)), testGraph, true,
			"b3215a1363ab04acd640eaa2b3564ad3dc70dff26ef90d53357fb64d1e6424b5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.workload, tc.policy, tc.cfg, tc.g)
			if err != nil {
				t.Fatal(err)
			}
			// The hot cells must actually reach the paths they pin.
			if res.Shutdown != tc.shutdown {
				t.Errorf("shutdown = %v, want %v", res.Shutdown, tc.shutdown)
			}
			if tc.cfg.MultiLevelHW && res.CriticalWarnings == 0 {
				t.Error("multi-level run raised no critical warnings")
			}
			sum := sha256.Sum256([]byte(mcFingerprint(res)))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("result hash %s, want %s", got, tc.want)
			}
		})
	}
}
