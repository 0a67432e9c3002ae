package system

import (
	"coolpim/internal/hmc"
	"coolpim/internal/power"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

// thermalCoupler drives the per-tick power→temperature feedback loop:
// cube activity counters → power budget → spatial power injection →
// transient thermal step → peak DRAM temperature. It owns the counter
// baseline and the vault-weight scratch buffer, so a tick performs no
// allocations (pinned by TestApplyPowerTickZeroAllocs) — the coupling
// runs every ThermalTick of every closed-loop run, which makes it part
// of the simulator's hot path alongside the thermal kernel itself.
type thermalCoupler struct {
	cube  *hmc.Cube
	model *thermal.Model
	power power.Model
	stack thermal.StackConfig
	prev  hmc.Counters
	// weights is the reusable vault-activity buffer; nil when the vault
	// count does not match the thermal grid (power then spreads
	// uniformly).
	weights []float64
}

func newThermalCoupler(cube *hmc.Cube, model *thermal.Model, cfg Config) *thermalCoupler {
	c := &thermalCoupler{
		cube:  cube,
		model: model,
		power: cfg.Power,
		stack: cfg.Stack,
	}
	if cube.Config().Vaults == c.stack.Cells() {
		c.weights = make([]float64, c.stack.Cells())
	}
	return c
}

// vaultWeights refreshes the scratch buffer with per-vault activity and
// returns it, or nil when the geometries don't line up (32 vaults ↔ 32
// cells) or no activity has accrued yet — both mean uniform spreading.
func (c *thermalCoupler) vaultWeights() []float64 {
	if c.weights == nil {
		return nil
	}
	w := c.cube.VaultActivityInto(c.weights)
	total := 0.0
	for _, x := range w {
		total += x
	}
	if total == 0 {
		return nil
	}
	return w
}

// inject loads the budget onto the stack (activity-weighted when vault
// geometry allows), on top of whatever the model currently holds —
// callers clear first.
func (c *thermalCoupler) inject(b power.Budget, weights []float64) {
	m := c.model
	m.AddLayerPower(0, b.StaticLogic)
	if weights != nil {
		m.AddLayerPowerWeighted(0, b.Logic+b.FU, weights)
	} else {
		m.AddLayerPower(0, b.Logic+b.FU)
	}
	dies := units.Watt(float64(c.stack.DRAMDies))
	for l := 1; l <= c.stack.DRAMDies; l++ {
		m.AddLayerPower(l, b.StaticDRAM/dies)
		dyn := b.DRAM / dies
		if weights != nil {
			m.AddLayerPowerWeighted(l, dyn, weights)
		} else {
			m.AddLayerPower(l, dyn)
		}
	}
}

// tick advances the coupling by one thermal tick of width dt: it
// converts the counter delta since the previous tick into a power
// budget, injects it onto the stack, steps the thermal model and
// returns the peak DRAM temperature.
//
//coolpim:hotpath
func (c *thermalCoupler) tick(dt units.Time) units.Celsius {
	ctr := c.cube.Counters()
	d := deltaCounters(ctr, c.prev)
	c.prev = ctr
	b := c.power.Compute(activityFor(d, dt))
	weights := c.vaultWeights()
	m := c.model
	m.ClearPower()
	c.inject(b, weights)
	m.Step(dt)
	return m.PeakDRAM()
}
