package thermal

import (
	"fmt"
	"math"

	"coolpim/internal/units"
)

// referenceModel is the pre-stencil interpretive implementation of the
// RC network, kept verbatim as the oracle for the differential tests:
// every node visit re-derives grid geometry and walks its neighbors
// branch by branch, and every Euler substep allocates a fresh field.
// The stencil operator in Model must remain bit-identical to this walk
// (same neighbors, same accumulation order — see DESIGN.md §6b), which
// the tests in stencil_test.go pin across stacks, coolings and
// randomized power injections. It lives in a _test.go file, so it is
// compiled only into the package's test binary.
type referenceModel struct {
	cfg     StackConfig
	cooling Cooling

	nCells  int
	nLayers int
	nNodes  int

	temp  []float64
	power []float64

	gVert   float64
	gLat    float64
	gSpread float64
	gRim    float64
	gSink   float64

	isEdge []bool

	maxStep float64
}

func newReference(cfg StackConfig, cooling Cooling) *referenceModel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cooling.SinkResistance <= 0 {
		panic("thermal: non-positive sink resistance")
	}
	r := &referenceModel{
		cfg:     cfg,
		cooling: cooling,
		nCells:  cfg.Cells(),
		nLayers: cfg.Layers(),
	}
	r.nNodes = r.nLayers*r.nCells + 1
	r.temp = make([]float64, r.nNodes)
	r.power = make([]float64, r.nNodes)
	for i := range r.temp {
		r.temp[i] = float64(cfg.Ambient)
	}
	r.gVert = 1 / cfg.CellVerticalR
	r.gLat = 1 / cfg.CellLateralR
	r.gSpread = 1 / cfg.SinkSpreadR
	r.gRim = 1 / cfg.RimR
	r.gSink = 1 / float64(cooling.SinkResistance)

	r.isEdge = make([]bool, r.nCells)
	for y := 0; y < cfg.GridH; y++ {
		for x := 0; x < cfg.GridW; x++ {
			if x == 0 || y == 0 || x == cfg.GridW-1 || y == cfg.GridH-1 {
				r.isEdge[y*cfg.GridW+x] = true
			}
		}
	}
	gMaxCell := 2*r.gVert + 4*r.gLat + r.gSpread + r.gRim
	gMaxSink := float64(r.nCells)*r.gSpread + r.gSink
	r.maxStep = 0.5 * math.Min(cfg.CellCap/gMaxCell, cfg.SinkCap/gMaxSink)
	return r
}

func (r *referenceModel) node(layer, cell int) int { return layer*r.nCells + cell }

func (r *referenceModel) sinkNode() int { return r.nLayers * r.nCells }

func (r *referenceModel) clearPower() {
	for i := range r.power {
		r.power[i] = 0
	}
}

func (r *referenceModel) addLayerPower(layer int, w units.Watt) {
	per := float64(w) / float64(r.nCells)
	for c := 0; c < r.nCells; c++ {
		r.power[r.node(layer, c)] += per
	}
}

func (r *referenceModel) addLayerPowerWeighted(layer int, w units.Watt, weights []float64) {
	if len(weights) != r.nCells {
		panic(fmt.Sprintf("thermal: %d weights for %d cells", len(weights), r.nCells))
	}
	total := 0.0
	for _, wt := range weights {
		total += wt
	}
	if total == 0 {
		r.addLayerPower(layer, w)
		return
	}
	for c, wt := range weights {
		r.power[r.node(layer, c)] += float64(w) * wt / total
	}
}

func (r *referenceModel) addCellPower(layer, x, y int, w units.Watt) {
	r.power[r.node(layer, y*r.cfg.GridW+x)] += float64(w)
}

// neighborFlux is the interpretive walk the stencil replaced: net
// conductive flux into node i and the total conductance seen by it,
// accumulated vertical-down, vertical-up/spread, lateral −x +x −y +y,
// rim (and for the sink node: top-die cells in cell order, then
// ambient). The stencil build order replicates this exactly.
func (r *referenceModel) neighborFlux(i int, t []float64) (flux, gTotal float64) {
	amb := float64(r.cfg.Ambient)
	if i == r.sinkNode() {
		top := r.nLayers - 1
		for c := 0; c < r.nCells; c++ {
			j := r.node(top, c)
			flux += r.gSpread * (t[j] - t[i])
			gTotal += r.gSpread
		}
		flux += r.gSink * (amb - t[i])
		gTotal += r.gSink
		return flux, gTotal
	}
	layer := i / r.nCells
	cell := i % r.nCells
	x, y := cell%r.cfg.GridW, cell/r.cfg.GridW
	if layer > 0 {
		j := r.node(layer-1, cell)
		flux += r.gVert * (t[j] - t[i])
		gTotal += r.gVert
	}
	if layer < r.nLayers-1 {
		j := r.node(layer+1, cell)
		flux += r.gVert * (t[j] - t[i])
		gTotal += r.gVert
	} else {
		flux += r.gSpread * (t[r.sinkNode()] - t[i])
		gTotal += r.gSpread
	}
	if x > 0 {
		j := i - 1
		flux += r.gLat * (t[j] - t[i])
		gTotal += r.gLat
	}
	if x < r.cfg.GridW-1 {
		j := i + 1
		flux += r.gLat * (t[j] - t[i])
		gTotal += r.gLat
	}
	if y > 0 {
		j := i - r.cfg.GridW
		flux += r.gLat * (t[j] - t[i])
		gTotal += r.gLat
	}
	if y < r.cfg.GridH-1 {
		j := i + r.cfg.GridW
		flux += r.gLat * (t[j] - t[i])
		gTotal += r.gLat
	}
	if r.isEdge[cell] {
		flux += r.gRim * (amb - t[i])
		gTotal += r.gRim
	}
	return flux, gTotal
}

// step advances the reference transient solution by d. It shares the
// integer substep schedule with Model.Step (the schedule fix is a
// deliberate behavior change, applied to both sides of the
// differential tests) but keeps the allocating per-substep field.
func (r *referenceModel) step(d units.Time) {
	nFull, rem := substepSchedule(d, r.maxStep)
	for s := 0; s < nFull; s++ {
		r.eulerStep(r.maxStep)
	}
	if rem > 0 {
		r.eulerStep(rem)
	}
}

func (r *referenceModel) eulerStep(dt float64) {
	next := make([]float64, r.nNodes)
	for i := 0; i < r.nNodes; i++ {
		flux, _ := r.neighborFlux(i, r.temp)
		cap := r.cfg.CellCap
		if i == r.sinkNode() {
			cap = r.cfg.SinkCap
		}
		next[i] = r.temp[i] + dt*(flux+r.power[i])/cap
	}
	r.temp = next
}

func (r *referenceModel) solveSteady() int {
	const (
		tol       = 1e-6
		maxSweeps = 200000
	)
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		maxDelta := 0.0
		for i := 0; i < r.nNodes; i++ {
			flux, gTotal := r.neighborFlux(i, r.temp)
			delta := (flux + r.power[i]) / gTotal
			r.temp[i] += delta
			if d := math.Abs(delta); d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta < tol {
			return sweep
		}
	}
	return -1
}
