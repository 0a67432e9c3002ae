package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"coolpim/internal/units"
)

func TestSpanTreeStructure(t *testing.T) {
	st := NewSpanTracer()
	nRun := st.Name("engine.run")
	nTick := st.Name("thermal.tick")
	nKernel := st.Name("gpu.kernel")

	if again := st.Name("engine.run"); again != nRun {
		t.Fatalf("re-interning engine.run: %d != %d", again, nRun)
	}

	root := st.StartRoot(0, nRun)
	if root.ID() != 1 {
		t.Fatalf("root ID = %d, want 1", root.ID())
	}
	// StartSpan parents under the open root without being told about it.
	tick := st.StartSpan(10, nTick)
	tick.End(12)
	// StartChild builds explicit cross-component edges.
	kernel := st.StartSpan(20, nKernel)
	block := st.StartChild(21, st.Name("gpu.block.pim"), kernel.ID())
	block.End(30)
	kernel.End(31)
	root.End(100)
	// After the root closes, new spans are roots themselves.
	orphan := st.StartSpan(200, nTick)
	orphan.End(201)

	got := st.Export()
	want := []SpanExport{
		{ID: 1, Parent: 0, Name: "engine.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "thermal.tick", Start: 10, End: 12},
		{ID: 3, Parent: 1, Name: "gpu.kernel", Start: 20, End: 31},
		{ID: 4, Parent: 3, Name: "gpu.block.pim", Start: 21, End: 30},
		{ID: 5, Parent: 0, Name: "thermal.tick", Start: 200, End: 201},
	}
	if len(got) != len(want) {
		t.Fatalf("exported %d spans, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSpanOpenExport(t *testing.T) {
	st := NewSpanTracer()
	st.StartRoot(5, st.Name("engine.run"))
	ex := st.Export()
	if len(ex) != 1 || !ex[0].Open() {
		t.Fatalf("open root should export as open: %+v", ex)
	}
	if ex[0].End != spanOpen {
		t.Fatalf("open span End = %d, want %d", ex[0].End, spanOpen)
	}
}

func TestSpanCapDrops(t *testing.T) {
	st := NewSpanTracer()
	st.maxSpans = 2
	n := st.Name("x")
	a := st.StartSpan(0, n)
	b := st.StartSpan(1, n)
	c := st.StartSpan(2, n) // over cap: inert
	if c.ID() != 0 {
		t.Fatalf("over-cap span got real ID %d", c.ID())
	}
	c.End(3) // must be a no-op, not a panic
	a.End(4)
	b.End(5)
	if st.Len() != 2 || st.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2/1", st.Len(), st.Dropped())
	}
}

// TestNilSpanTracerZeroAlloc pins the disabled-telemetry contract for
// the span API: a nil tracer must cost zero allocations on every path a
// simulation component exercises per event. The mark emitters are
// pinned by TestNilTracerZeroAlloc.
func TestNilSpanTracerZeroAlloc(t *testing.T) {
	var st *SpanTracer
	name := st.Name("anything")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := st.StartSpan(42, name)
		sp.End(43)
		child := st.StartChild(42, name, sp.ID())
		child.End(44)
		root := st.StartRoot(0, name)
		root.End(1)
		_ = st.Len()
		_ = st.Dropped()
	})
	if allocs != 0 {
		t.Fatalf("nil SpanTracer allocated %.1f per op, want 0", allocs)
	}
}

// TestSpanJSONLRoundTrip pins the stream format: spans and marks
// interleaved in record order, and a write → parse → write round trip
// that reproduces the bytes exactly, so downstream tools (coolpim-trace,
// diffing two runs) can treat the JSONL file as canonical. Each mark
// emitter's line is pinned by TestTracerKindsAndJSONL.
func TestSpanJSONLRoundTrip(t *testing.T) {
	st := NewSpanTracer()
	st.PoolInit(0, "sw-ptp", 64) // before any root: parent 0
	root := st.StartRoot(0, st.Name("engine.run"))
	sp := st.StartSpan(1000, st.Name(`odd "name"`))
	sp.End(2000)
	st.ThermalWarning(10*units.Microsecond, true, 86.2)
	st.Mark(40*units.Microsecond, st.Name("x.bare"), "") // payload-free
	_ = root                                             // left open: end_ps round-trips as -1

	var first bytes.Buffer
	if err := st.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	want := `{"parent":0,"name":"pool.init","t_ps":0,"args":{"mechanism":"sw-ptp","size":64}}
{"id":1,"parent":0,"name":"engine.run","start_ps":0,"end_ps":-1}
{"id":2,"parent":1,"name":"odd \"name\"","start_ps":1000,"end_ps":2000}
{"parent":1,"name":"thermal.warning.raise","t_ps":10000000,"args":{"temp_c":86.20}}
{"parent":1,"name":"x.bare","t_ps":40000000,"args":{}}
`
	if first.String() != want {
		t.Fatalf("JSONL =\n%s\nwant\n%s", first.String(), want)
	}
	parsed, err := ParseSpansJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteSpansJSONL(&second, parsed); err != nil {
		t.Fatal(err)
	}
	if second.String() != first.String() {
		t.Fatalf("round trip not byte-identical:\n%q\nvs\n%q", first.String(), second.String())
	}
	if parsed[1].End != spanOpen || !parsed[1].Open() {
		t.Fatalf("open root lost its open marker: %+v", parsed[1])
	}
	// A mark is read back as a mark, never as a zero-length span.
	for _, i := range []int{0, 3, 4} {
		m := parsed[i]
		if !m.IsMark() || m.Open() || m.ID != 0 || m.Start != m.End {
			t.Fatalf("record %d not read back as a mark: %+v", i, m)
		}
	}
	if parsed[2].IsMark() {
		t.Fatalf("span read back as a mark: %+v", parsed[2])
	}
}

func TestSpanWallStampsStayOutOfExports(t *testing.T) {
	st := NewSpanTracer()
	wall := int64(1000)
	st.SetWallClock(func() int64 { wall += 7; return wall })
	sp := st.StartRoot(0, st.Name("engine.run"))
	sp.End(50)

	var out strings.Builder
	if err := st.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "wall") {
		t.Fatalf("deterministic JSONL export leaked wall stamps: %s", out.String())
	}
	// The live snapshot view is where the wall stamps surface.
	var rows []spanSnapshotRow
	if err := json.Unmarshal(st.snapshotJSON(0), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].WallStartNs == 0 || rows[0].WallEndNs == 0 {
		t.Fatalf("snapshot rows missing wall stamps: %+v", rows)
	}
}

func TestSpanSnapshotJSONLimitsAndOpen(t *testing.T) {
	st := NewSpanTracer()
	n := st.Name("s")
	for i := 0; i < 5; i++ {
		sp := st.StartSpan(units.Time(i), n)
		if i != 4 {
			sp.End(units.Time(i + 10))
		}
	}
	var rows []spanSnapshotRow
	if err := json.Unmarshal(st.snapshotJSON(3), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("snapshot returned %d rows, want 3", len(rows))
	}
	last := rows[len(rows)-1]
	if !last.Open || last.EndMs != -1 {
		t.Fatalf("open span not marked in snapshot: %+v", last)
	}
	if got := string((*SpanTracer)(nil).snapshotJSON(0)); got != "[]" {
		t.Fatalf("nil tracer snapshot = %q, want []", got)
	}
}

func TestSpanEndFeedsFlightRecorder(t *testing.T) {
	st := NewSpanTracer()
	fr := NewFlightRecorder(8)
	st.SetFlight(fr)
	sp := st.StartSpan(1000, st.Name("thermal.tick"))
	st.ThermalWarning(2000, true, 86.2)
	sp.End(3000)
	// A mark the sampler suppresses never reaches the ring.
	st.SetMinGap(st.Name("link.backpressure"), 1000)
	st.LinkBackpressure(4000, 1, 50)
	st.LinkBackpressure(4500, 1, 50)

	var out bytes.Buffer
	if err := fr.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("flight ring holds %d records, want 3:\n%s", len(lines), out.String())
	}
	for i, want := range [][]string{
		{`"t_ps":2000`, `"kind":"mark"`, `"name":"thermal.warning.raise"`, `"temp_c":86.20`},
		{`"kind":"span"`, `"name":"thermal.tick"`, `"dur_ps":2000`},
		{`"t_ps":4000`, `"kind":"mark"`, `"name":"link.backpressure"`, `"link":1`},
	} {
		for _, w := range want {
			if !strings.Contains(lines[i], w) {
				t.Errorf("flight record %d missing %s: %s", i, w, lines[i])
			}
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Errorf("flight record %d is not JSON: %v", i, err)
		}
	}
}

func TestSpanMinGapSampling(t *testing.T) {
	st := NewSpanTracer()
	bulk := st.Name("hmc.pim")
	rare := st.Name("throttle.react.hw")
	st.SetMinGap(bulk, 100)

	// 0,10,...,290: only starts >= last+100 record (0, 100, 200).
	for i := 0; i < 30; i++ {
		sp := st.StartSpan(units.Time(i*10), bulk)
		sp.End(units.Time(i*10 + 5))
	}
	// Un-gapped names are never sampled, whatever the timing.
	st.StartSpan(205, rare).End(206)
	st.StartSpan(207, rare).End(208)

	var bulkN, rareN int
	for _, s := range st.Export() {
		switch s.Name {
		case "hmc.pim":
			bulkN++
		case "throttle.react.hw":
			rareN++
		}
	}
	if bulkN != 3 {
		t.Errorf("gapped spans recorded = %d, want 3 (starts 0, 100, 200)", bulkN)
	}
	if rareN != 2 {
		t.Errorf("un-gapped spans recorded = %d, want 2", rareN)
	}
	if got := suppressed(st, "hmc.pim"); got != 27 {
		t.Errorf("suppressed hmc.pim = %d, want 27", got)
	}
	// Suppressed handles are inert: End must not corrupt other spans.
	st.SetMinGap(bulk, 1000)         // resets the name's sampling state
	st.StartSpan(250, bulk).End(251) // first after reconfigure records
	sp := st.StartSpan(260, bulk)    // 260 < 250+1000 -> suppressed
	sp.End(9999)
	for _, s := range st.Export() {
		if s.End == 9999 {
			t.Fatalf("suppressed span's End stamped a stored span: %+v", s)
		}
	}
	if got := suppressed(st, "hmc.pim"); got != 28 {
		t.Errorf("suppressed hmc.pim = %d after reconfiguring, want 28 (the count survives)", got)
	}

}

// suppressed is the SetMinGap suppression count of one name.
func suppressed(st *SpanTracer, name string) uint64 {
	for _, c := range st.CountsByName() {
		if c.Name == name {
			return c.Suppressed
		}
	}
	return 0
}

func TestSpanMinGapSuppressionDoesNotCountAgainstCap(t *testing.T) {
	st := NewSpanTracer()
	st.maxSpans = 4
	bulk := st.Name("bulk")
	st.SetMinGap(bulk, 1000)
	// One recorded bulk span, then a flood of suppressed ones.
	for i := 0; i < 100; i++ {
		st.StartSpan(units.Time(i), bulk).End(units.Time(i))
	}
	// The rare late span must still fit under the cap.
	sp := st.StartSpan(5000, st.Name("rare"))
	sp.End(5001)
	var rare int
	for _, s := range st.Export() {
		if s.Name == "rare" {
			rare++
		}
	}
	if rare != 1 {
		t.Fatalf("rare span dropped despite sampling (len=%d dropped=%d)", st.Len(), st.Dropped())
	}
	if st.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0: suppressed spans must not hit the cap", st.Dropped())
	}
}

// TestParseSpansJSONLStrict pins the parser as a trust boundary: only
// complete span or mark records parse, and the error names the line.
func TestParseSpansJSONLStrict(t *testing.T) {
	const span = `{"id":1,"parent":0,"name":"engine.run","start_ps":0,"end_ps":5}`
	const gen = "want exactly the fields of a span (id, parent, name, start_ps, end_ps) or of a mark (parent, name, t_ps, args)"
	for _, tc := range []struct{ name, line, want string }{
		{"garbage", `not json`, "invalid character"},
		{"empty object", `{}`, gen},
		{"event trace line", `{"t_ps":0,"t_ms":0.000000,"kind":"pool.init","mechanism":"hw-pcu","size":1024}`, gen},
		{"unknown span field", `{"id":1,"parent":0,"name":"a","start_ps":0,"end_ps":5,"dur":5}`, gen},
		{"span missing fields", `{"id":1,"name":"a","start_ps":0}`, gen},
		{"field name case", `{"ID":1,"parent":0,"name":"a","start_ps":0,"end_ps":5}`, gen},
		{"span id 0", `{"id":0,"parent":0,"name":"a","start_ps":0,"end_ps":5}`, "span id 0"},
		{"span with mark fields", `{"id":1,"parent":0,"name":"a","start_ps":0,"end_ps":5,"t_ps":0}`, gen},
		{"mark missing args", `{"parent":0,"name":"a","t_ps":0}`, gen},
		{"mark with span fields", `{"parent":0,"name":"a","t_ps":0,"args":{},"end_ps":0}`, gen},
		{"mark args not an object", `{"parent":0,"name":"a","t_ps":0,"args":[1]}`, "not a JSON object"},
		{"mark args null", `{"parent":0,"name":"a","t_ps":0,"args":null}`, "not a JSON object"},
		{"not an object", `[1,2]`, "cannot unmarshal"},
		{"two records on a line", span + span, "trailing data"},
		{"negative id", `{"id":-1,"parent":0,"name":"a","start_ps":0,"end_ps":5}`, "cannot unmarshal"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpansJSONL(strings.NewReader(span + "\n\n" + tc.line + "\n"))
			if err == nil {
				t.Fatalf("accepted %s", tc.line)
			}
			if !strings.Contains(err.Error(), "spans line 3:") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want line 3 and %q", err, tc.want)
			}
		})
	}
}

// FuzzParseSpansJSONL checks that the parser never panics and that any
// input it accepts reaches a fixed point after one write → parse.
func FuzzParseSpansJSONL(f *testing.F) {
	st := NewSpanTracer()
	st.PoolInit(0, "hw-pcu", 1024)
	root := st.StartRoot(0, st.Name("engine.run"))
	tick := st.StartSpan(10, st.Name("thermal.tick"))
	st.ThermalWarning(10, true, 85.3)
	tick.End(12)
	st.PoolResize(20, "hw-pcu", 1024, 960, "warning")
	root.End(30)
	var export bytes.Buffer
	if err := st.WriteJSONL(&export); err != nil {
		f.Fatal(err)
	}
	f.Add(export.String())
	f.Add(`{"t_ps":0,"t_ms":0.000000,"kind":"pool.init","mechanism":"hw-pcu","size":1024}` + "\n")
	f.Add(`{"ID":2,"parent":1,"name":"a <b>","start_ps":-1,"end_ps":-1}` + "\n" +
		`{"parent":0,"name":"m","t_ps":3,"args":{ "k" : [1, {"x":null}] }}` + "\n")
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := ParseSpansJSONL(strings.NewReader(in))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := WriteSpansJSONL(&once, recs); err != nil {
			t.Fatal(err)
		}
		again, err := ParseSpansJSONL(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("written output does not parse: %v\n%s", err, once.String())
		}
		if err := WriteSpansJSONL(&twice, again); err != nil {
			t.Fatal(err)
		}
		if once.String() != twice.String() {
			t.Fatalf("no fixed point after one write → parse:\n%q\nvs\n%q", once.String(), twice.String())
		}
	})
}
