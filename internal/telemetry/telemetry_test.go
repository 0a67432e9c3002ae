package telemetry

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestExponentialBounds(t *testing.T) {
	got := ExponentialBounds(0.5, 2, 4)
	want := []float64{0.5, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("bounds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", got, want)
		}
	}
	for _, bad := range []func(){
		func() { ExponentialBounds(0, 2, 3) },
		func() { ExponentialBounds(1, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid exponential bounds accepted")
				}
			}()
			bad()
		}()
	}
}

func TestHistogramPercentiles(t *testing.T) {
	reg := NewRegistry()
	// Buckets 10,20,...,100; observe 1..100 uniformly.
	h := reg.Histogram("h", "test", LinearBounds(10, 10, 10))
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %g, want 5050", h.Sum())
	}
	for _, tc := range []struct {
		q, want float64
	}{
		{0.5, 50}, {0.9, 90}, {0.1, 10}, {1.0, 100},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// Values beyond the last finite bound clamp to it.
	h2 := reg.Histogram("h2", "test", []float64{1, 2})
	h2.Observe(50)
	if got := h2.Quantile(0.99); got != 2 {
		t.Errorf("overflow quantile = %g, want 2 (last finite bound)", got)
	}
	// Empty histogram reports NaN.
	h3 := reg.Histogram("h3", "test", []float64{1})
	if got := h3.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %g, want NaN", got)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds did not panic")
		}
	}()
	NewRegistry().Histogram("bad", "", []float64{2, 1})
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name did not panic")
		}
	}()
	reg.GaugeFunc("dup", "", func() float64 { return 0 })
}

func TestCounterNegativeAddPanics(t *testing.T) {
	c := NewRegistry().Counter("c", "")
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("runs_total", "total runs")
	c.Inc()
	c.Inc()
	reg.GaugeFunc("temp_celsius", "current temp", func() float64 { return 86.5 })
	h := reg.Histogram("lat_ns", "latency", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE runs_total counter\nruns_total 2\n",
		"# TYPE temp_celsius gauge\ntemp_celsius 86.5\n",
		"# TYPE lat_ns histogram\n",
		`lat_ns_bucket{le="10"} 1`,
		`lat_ns_bucket{le="100"} 2`,
		`lat_ns_bucket{le="+Inf"} 3`,
		"lat_ns_sum 5055\n",
		"lat_ns_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line is "name value" with a parseable value; names
	// sorted ascending.
	var prevName string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		name = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if name < prevName {
			t.Errorf("metrics not sorted: %q after %q", name, prevName)
		}
		prevName = name
	}
}

func TestLabeledFuncMetrics(t *testing.T) {
	reg := NewRegistry()
	for cube := 0; cube < 3; cube++ {
		cube := cube
		reg.CounterFuncLabeled("pim_ops_total", "PIM ops served", "cube", strconv.Itoa(cube),
			func() float64 { return float64(100 + cube) })
	}
	reg.GaugeFuncLabeled("peak_celsius", "peak temp", "cube", "0", func() float64 { return 86.5 })
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`pim_ops_total{cube="0"} 100`,
		`pim_ops_total{cube="1"} 101`,
		`pim_ops_total{cube="2"} 102`,
		`peak_celsius{cube="0"} 86.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// One HELP/TYPE header for the whole labeled family.
	if got := strings.Count(out, "# TYPE pim_ops_total counter"); got != 1 {
		t.Errorf("TYPE header emitted %d times, want 1:\n%s", got, out)
	}

	// Duplicate series and cross-type reuse of a base name must panic.
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate labeled series", func() {
		reg.CounterFuncLabeled("pim_ops_total", "", "cube", "1", func() float64 { return 0 })
	})
	mustPanic("type mismatch on base name", func() {
		reg.GaugeFuncLabeled("pim_ops_total", "", "cube", "9", func() float64 { return 0 })
	})
	mustPanic("invalid label name", func() {
		reg.CounterFuncLabeled("ok_total", "", "bad label", "x", func() float64 { return 0 })
	})
}

func TestEngineProfileAggregates(t *testing.T) {
	p := NewEngineProfile()
	p.EventExecuted("hmc", 0, 100)
	p.EventExecuted("hmc", 1, 50)
	p.EventExecuted("gpu", 2, 30)
	p.EventExecuted("", 3, 10)
	stats := p.Stats()
	if len(stats) != 3 {
		t.Fatalf("rows = %d, want 3", len(stats))
	}
	if stats[0].Label != "hmc" || stats[0].Events != 2 || stats[0].WallNs != 150 {
		t.Errorf("top row = %+v, want hmc/2/150", stats[0])
	}
	if stats[2].Label != "(unlabeled)" {
		t.Errorf("empty label not mapped: %+v", stats[2])
	}
}

func TestWriteSummarySmoke(t *testing.T) {
	tel := New()
	tel.Spans.SetMinGap(tel.Spans.Name("link.backpressure"), 10)
	tel.Spans.LinkBackpressure(0, 1, 5)
	tel.Spans.LinkBackpressure(1, 1, 5)
	tel.Spans.ThermalWarning(0, true, 86)
	tel.Registry.Counter("x_total", "").Inc()
	tel.Profile().EventExecuted("hmc", 0, 42)
	var sb strings.Builder
	if err := tel.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"thermal.warning.raise", "(+1 rate-limited)", "hmc", "x_total"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sb.String())
		}
	}
	// Disabled hub: summary is a silent no-op.
	var nilTel *Telemetry
	if err := nilTel.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	if nilTel.Enabled() {
		t.Error("nil hub reports enabled")
	}
}

// TestHelpEscaping is the S1 regression: HELP text containing
// backslashes or newlines must be escaped per the Prometheus text
// exposition format, or a multiline help string corrupts the whole
// exposition (the continuation line parses as a bogus sample).
func TestHelpEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "first line\nsecond line with a \\ backslash")
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `# HELP c_total first line\nsecond line with a \\ backslash` + "\n"
	if !strings.Contains(out, want) {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
	// Every line must be a comment or a sample — an unescaped newline
	// would have produced a bare "second line..." line.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "c_total") {
			t.Fatalf("stray exposition line %q:\n%s", line, out)
		}
	}
}

// TestQuantileEdges pins Histogram.Quantile at the boundaries the
// interpolation code special-cases: q=0, q=1, and mass in the +Inf
// bucket beyond the last finite bound.
func TestQuantileEdges(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_edges", "test", LinearBounds(10, 10, 10)) // 10..100
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %g, want 0 (interpolates from the first bucket's lower edge)", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("Quantile(1) = %g, want 100", got)
	}
	// Out-of-range q clamps rather than extrapolating.
	if got := h.Quantile(-0.5); got != h.Quantile(0) {
		t.Errorf("Quantile(-0.5) = %g, want clamp to Quantile(0)", got)
	}
	if got := h.Quantile(2); got != h.Quantile(1) {
		t.Errorf("Quantile(2) = %g, want clamp to Quantile(1)", got)
	}

	// All mass beyond the last finite bound: every quantile clamps to it.
	h2 := reg.Histogram("q_inf", "test", LinearBounds(10, 10, 2)) // 10, 20
	h2.Observe(1e9)
	h2.Observe(1e9)
	for _, q := range []float64{0.01, 0.5, 1} {
		if got := h2.Quantile(q); got != 20 {
			t.Errorf("Quantile(%g) with +Inf mass = %g, want clamp to 20", q, got)
		}
	}

	// Empty histogram has no quantiles.
	h3 := reg.Histogram("q_empty", "test", LinearBounds(10, 10, 2))
	if got := h3.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("Quantile on empty histogram = %g, want NaN", got)
	}
}
