package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"coolpim/internal/system"
)

// pinsText holds the expected fingerprint of every cell the default seed
// runs at full size, one "<cell key> <fingerprint>" pair per line. A
// cell key names the cell's inputs, not the benchmark seed, so a pin
// applies wherever the same cell runs. Regenerate with -pins-out.
//
//go:embed pins.txt
var pinsText string

// parsePins reads the pin table format. Blank lines and lines starting
// with '#' are skipped.
func parsePins(text string) (map[string]string, error) {
	pins := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("pins line %d: want \"<cell> <fingerprint>\", got %q", n, line)
		}
		pins[f[0]] = f[1]
	}
	return pins, sc.Err()
}

// fingerprint hashes every simulated observable of a result: runtime,
// launches, HMC, GPU and L2 counters, the bits of the peak temperature,
// throttle counters, pool sizes, the per-cube and per-link tables, and
// the time series. JSON encoding keeps every float bit-exact and needs
// no per-field list, so a counter added to system.Result is covered
// without touching this function. VerifyErr is checked separately.
func fingerprint(r *system.Result) string {
	v := *r
	v.VerifyErr = nil
	series := v.Series
	v.Series = nil
	perCube := make([]system.CubeResult, len(v.PerCube))
	var cubeSeries [][]system.Sample
	for i, c := range v.PerCube {
		cubeSeries = append(cubeSeries, c.Series)
		c.Series = nil
		perCube[i] = c
	}
	v.PerCube = perCube
	h := sha256.New()
	for _, part := range []any{v, series, cubeSeries} {
		b, err := json.Marshal(part)
		if err != nil {
			// Result holds only numbers, strings and slices of them.
			panic(fmt.Sprintf("perfbench: encoding result: %v", err))
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// gate checks simulated results against the pin table and against
// themselves: a cell with a pin must match it, and a cell seen more
// than once in a run must repeat its first fingerprint exactly.
type gate struct {
	pins map[string]string

	mu       sync.Mutex
	seen     map[string]string
	unpinned int
}

func newGate(pins map[string]string) *gate {
	return &gate{pins: pins, seen: make(map[string]string)}
}

// check records one result for cell and returns why it is wrong, or nil.
func (g *gate) check(cell string, r *system.Result) error {
	if r == nil {
		return fmt.Errorf("%s: no result", cell)
	}
	if r.VerifyErr != nil {
		return fmt.Errorf("%s: verification: %w", cell, r.VerifyErr)
	}
	return g.checkFingerprint(cell, fingerprint(r))
}

func (g *gate) checkFingerprint(cell, fp string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if want, ok := g.pins[cell]; ok && want != fp {
		return fmt.Errorf("%s: fingerprint %s, pinned %s", cell, fp, want)
	}
	if first, ok := g.seen[cell]; ok {
		if first != fp {
			return fmt.Errorf("%s: fingerprint %s differs from this run's earlier %s", cell, fp, first)
		}
		return nil
	}
	if _, ok := g.pins[cell]; !ok {
		g.unpinned++
	}
	g.seen[cell] = fp
	return nil
}

// cells returns the run's cell keys and fingerprints, sorted by key.
func (g *gate) cells() [][2]string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([][2]string, 0, len(g.seen))
	for k, fp := range g.seen {
		out = append(out, [2]string{k, fp})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// runHash combines every cell fingerprint of the run into one value, so
// two commits run on the same seed can be compared with one string.
func (g *gate) runHash() string {
	h := sha256.New()
	for _, c := range g.cells() {
		fmt.Fprintf(h, "%s %s\n", c[0], c[1])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
