package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"coolpim/internal/units"
)

// TestTracerKindsAndJSONL pins every mark emitter's exact stream line
// and the per-name counts of a marks-only stream (no root open, so
// every mark is parented at 0).
func TestTracerKindsAndJSONL(t *testing.T) {
	st := NewSpanTracer()
	st.PoolInit(0, "sw-ptp", 64)
	st.ThermalWarning(10*units.Microsecond, true, 86.2)
	st.PhaseTransition(10*units.Microsecond, "Normal", "Extended", 86.2)
	st.PoolResize(12*units.Microsecond, "sw-ptp", 64, 58, "warning")
	st.LinkBackpressure(14*units.Microsecond, 2, 120*units.Nanosecond)
	st.ThermalWarning(20*units.Microsecond, false, 84.9)
	st.Shutdown(30*units.Microsecond, 105.5)

	if st.Len() != 7 {
		t.Fatalf("Len = %d, want 7", st.Len())
	}
	var sb strings.Builder
	if err := st.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{"parent":0,"name":"pool.init","t_ps":0,"args":{"mechanism":"sw-ptp","size":64}}
{"parent":0,"name":"thermal.warning.raise","t_ps":10000000,"args":{"temp_c":86.20}}
{"parent":0,"name":"thermal.phase","t_ps":10000000,"args":{"from":"Normal","to":"Extended","temp_c":86.20}}
{"parent":0,"name":"pool.resize","t_ps":12000000,"args":{"mechanism":"sw-ptp","from":64,"to":58,"reason":"warning"}}
{"parent":0,"name":"link.backpressure","t_ps":14000000,"args":{"link":2,"wait_ns":120.0}}
{"parent":0,"name":"thermal.warning.clear","t_ps":20000000,"args":{"temp_c":84.90}}
{"parent":0,"name":"thermal.shutdown","t_ps":30000000,"args":{"temp_c":105.50}}
`
	if sb.String() != want {
		t.Fatalf("JSONL =\n%s\nwant\n%s", sb.String(), want)
	}
	counts := st.CountsByName()
	if len(counts) != 7 {
		t.Fatalf("CountsByName rows = %d, want 7 distinct names: %+v", len(counts), counts)
	}
	for _, c := range counts {
		if c.Count != 1 || c.Suppressed != 0 {
			t.Errorf("CountsByName row %+v, want count 1, none suppressed", c)
		}
	}
}

// TestTraceJSONLRoundTrip pins a marks-only stream: writing, parsing
// and re-writing it must reproduce the original bytes exactly, and
// every record, payload-free ones included, reads back as a mark.
func TestTraceJSONLRoundTrip(t *testing.T) {
	st := NewSpanTracer()
	st.ThermalWarning(1_000_000, true, 85.3)
	st.PhaseTransition(2_000_000, "nominal", "derate1", 86.1)
	st.PoolResize(3_000_000, "sw-ptp", 60, 48, "warning")
	st.Mark(4_000_000, st.Name("thermal.shutdown"), "") // payload-free mark

	var first bytes.Buffer
	if err := st.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	recs, err := ParseSpansJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("parsed %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if !r.IsMark() {
			t.Fatalf("record %d not read back as a mark: %+v", i, r)
		}
	}
	var second bytes.Buffer
	if err := WriteSpansJSONL(&second, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip not byte-identical:\n%q\nvs\n%q", first.String(), second.String())
	}
}

// TestTracerRateLimit checks that marks go through the span tracer's
// per-name SetMinGap sampler: with a 1us gap, backpressure marks at
// 0..900ns keep only the first, one at 2us records again, the
// suppressions are counted per name, and other names are unaffected.
func TestTracerRateLimit(t *testing.T) {
	st := NewSpanTracer()
	st.SetMinGap(st.Name("link.backpressure"), units.Microsecond)
	for i := 0; i < 10; i++ {
		st.LinkBackpressure(units.Time(i)*100*units.Nanosecond, 0, units.Nanosecond)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after rate limiting", st.Len())
	}
	st.LinkBackpressure(2*units.Microsecond, 0, units.Nanosecond)
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after the gap elapses", st.Len())
	}
	st.ThermalWarning(0, true, 86)
	st.ThermalWarning(1, false, 86)
	if st.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (no gap on warnings)", st.Len())
	}
	want := []NameCount{
		{Name: "link.backpressure", Count: 2, Suppressed: 9},
		{Name: "thermal.warning.clear", Count: 1},
		{Name: "thermal.warning.raise", Count: 1},
	}
	got := st.CountsByName()
	if len(got) != len(want) {
		t.Fatalf("CountsByName = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("CountsByName[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestTracerCapDropsExcess checks that marks count against the span
// cap: marks past it are dropped and counted, whether the records
// before them were marks or spans.
func TestTracerCapDropsExcess(t *testing.T) {
	st := NewSpanTracer()
	st.maxSpans = 3
	for i := 0; i < 5; i++ {
		st.PoolInit(units.Time(i), "sw-ptp", i)
	}
	if st.Len() != 3 || st.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", st.Len(), st.Dropped())
	}

	mixed := NewSpanTracer()
	mixed.maxSpans = 3
	n := mixed.Name("x")
	a := mixed.StartSpan(0, n)
	mixed.PoolInit(0, "sw-ptp", 64) // shares the cap with the spans
	b := mixed.StartSpan(1, n)
	mixed.ThermalWarning(3, true, 86) // over cap: dropped and counted
	a.End(4)
	b.End(5)
	if mixed.Len() != 3 || mixed.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 3/1", mixed.Len(), mixed.Dropped())
	}
	for _, r := range mixed.Export() {
		if r.Name == "thermal.warning.raise" {
			t.Fatalf("over-cap mark stored: %+v", r)
		}
	}
}

// TestNilTracerZeroAlloc pins the disabled-telemetry contract for marks:
// Mark and every payload emitter on a nil tracer (their formatting sits
// behind the nil guard), and Observe on a nil histogram, must not
// allocate, so components can call them unguarded on the hot path.
func TestNilTracerZeroAlloc(t *testing.T) {
	var st *SpanTracer
	var h *Histogram
	name := st.Name("anything")
	allocs := testing.AllocsPerRun(1000, func() {
		st.Mark(0, name, "")
		st.ThermalWarning(0, true, 86)
		st.PhaseTransition(0, "a", "b", 86)
		st.Shutdown(0, 106)
		st.PoolInit(0, "sw-ptp", 4)
		st.PoolResize(0, "sw-ptp", 4, 3, "warning")
		st.LinkBackpressure(0, 0, 1)
		h.Observe(1.5)
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer marks allocated %.1f times per run, want 0", allocs)
	}
}
