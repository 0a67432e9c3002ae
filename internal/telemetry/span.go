package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"coolpim/internal/units"
)

// SpanID identifies one span within a run's stream. IDs are assigned
// sequentially from 1; 0 means "no span" and is the parent of roots.
type SpanID uint32

// SpanName is an interned span-name handle returned by SpanTracer.Name.
// Components intern their names once at wiring time so starting a span
// on the hot path is a mutex acquire and a slice append, never a map
// lookup or a string allocation. The zero SpanName renders as "".
type SpanName uint32

// DefaultMaxSpans caps the in-memory store of spans and marks; beyond
// it records are dropped and counted, so a runaway emitter cannot
// exhaust memory.
const DefaultMaxSpans = 1 << 20

// spanOpen marks a span's End while it is still in flight.
const spanOpen = units.Time(-1)

// spanRec is the stored form of one record: a span, or a mark (id 0,
// end == start, args its payload).
type spanRec struct {
	id          SpanID
	parent      SpanID
	name        SpanName
	start, end  units.Time
	args        string
	wallStartNs int64
	wallEndNs   int64
}

// SpanTracer records the hierarchical span tree of one run: every span
// has an explicit parent (spans routinely outlive the engine event that
// opened them, so there is deliberately no implicit "current span"
// stack), an interned name, a simulated start/end time and — when a
// wall clock is injected — wall-clock stamps for harness-level spans.
//
// The same stream carries marks: zero-duration leaf records (a thermal
// warning, a pool resize) with a pre-rendered JSON payload, parented
// under the current root. Marks take no span ID, but they share the
// spans' per-name sampler, cap and flight-recorder hookup.
//
// A nil *SpanTracer is the disabled state: every method returns
// immediately without allocating, and the Span values it hands out are
// inert. An enabled tracer is safe for concurrent use (the campaign
// runner opens job spans from worker goroutines); within a
// single-threaded simulation the mutex is uncontended.
//
// Wall-clock stamps never appear in the deterministic JSONL/Chrome
// exports — they are only visible through live snapshots — so two runs
// with identical seeds still produce byte-identical span exports.
type SpanTracer struct {
	mu       sync.Mutex
	names    []string            //coolpim:guard mu (index = SpanName-1)
	nameIDs  map[string]SpanName //coolpim:guard mu
	spans    []spanRec           //coolpim:guard mu
	nextID   SpanID              //coolpim:guard mu
	curRoot  SpanID              //coolpim:guard mu (most recently started, still-open root span)
	maxSpans int                 //coolpim:guard mu
	dropped  uint64              //coolpim:guard mu
	gaps     []nameGap           //coolpim:guard mu (index = SpanName-1; zero gap = record every span)
	wall     func() int64        //coolpim:guard mu (optional wall clock (UnixNano); nil = no stamps)
	flight   *FlightRecorder     //coolpim:guard mu
}

// nameGap is the per-name sampling state installed by SetMinGap.
type nameGap struct {
	gap        units.Time
	last       units.Time
	seen       bool
	suppressed uint64
}

// NewSpanTracer returns an enabled, empty span tracer.
func NewSpanTracer() *SpanTracer {
	return &SpanTracer{
		nameIDs:  make(map[string]SpanName),
		maxSpans: DefaultMaxSpans,
	}
}

// SetWallClock injects the wall-clock source (a UnixNano reading) used
// to stamp spans. The telemetry package never reads the wall clock
// itself — harness code that wants wall stamps (the campaign runner,
// the diag server) passes its own reader, keeping simulation packages
// free of timing syscalls. A nil fn disables wall stamping.
//
//coolpim:hotpath nilfast wiring setter; nil tracer returns immediately
func (t *SpanTracer) SetWallClock(fn func() int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.wall = fn
	t.mu.Unlock()
}

// SetFlight attaches a flight recorder that receives one record per
// span closure and per stored mark (see FlightRecorder).
//
//coolpim:hotpath nilfast wiring setter; nil tracer returns immediately
func (t *SpanTracer) SetFlight(fr *FlightRecorder) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.flight = fr
	t.mu.Unlock()
}

// SetMinGap rate-limits one name: after a span or mark of that name is
// recorded, further records of the same name closer than gap to it are
// suppressed — not stored, not counted against the cap, and (for
// spans) their Span handles are inert. The first record of the name
// always records, and (re)installing a gap resets the name's sampling
// state but keeps its suppression count. Gating is on simulated start
// time only, so sampling is deterministic. CountsByName reports what
// each name stored and suppressed.
//
// System wiring uses this for per-request span families (one span per
// HMC request) and the per-request link.backpressure mark: without
// sampling, a long run fills the capped store with bulk records in its
// first few hundred microseconds and the rare control-plane spans
// (throttle reactions) that arrive later are silently dropped.
//
//coolpim:hotpath nilfast wiring setter; nil tracer returns immediately
func (t *SpanTracer) SetMinGap(name SpanName, gap units.Time) {
	if t == nil || name == 0 || gap <= 0 {
		return
	}
	t.mu.Lock()
	for int(name) > len(t.gaps) {
		t.gaps = append(t.gaps, nameGap{})
	}
	g := &t.gaps[name-1]
	*g = nameGap{gap: gap, suppressed: g.suppressed}
	t.mu.Unlock()
}

// Name interns a span name and returns its handle. Interning the same
// string twice returns the same handle. On a nil tracer (or for the
// empty string) it returns the zero handle.
//
//coolpim:hotpath nilfast interning on a nil tracer returns the zero handle without allocating
func (t *SpanTracer) Name(name string) SpanName {
	if t == nil || name == "" {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.intern(name)
}

// intern is Name for callers that hold t.mu.
//
//coolpim:locked mu
func (t *SpanTracer) intern(name string) SpanName {
	if id, ok := t.nameIDs[name]; ok {
		return id
	}
	t.names = append(t.names, name)
	id := SpanName(len(t.names))
	t.nameIDs[name] = id
	return id
}

// Span is a handle to one in-flight span. The zero Span (from a nil or
// saturated tracer) is inert: End and ID are no-ops. Span values are
// small and copyable; exactly one End per span is the caller's
// responsibility (a second End overwrites the stamps).
type Span struct {
	t   *SpanTracer
	idx int32
}

// StartRoot opens a top-level span (parent 0) and makes it the current
// root: until it ends, StartSpan parents new spans under it. The engine
// profile opens the "engine.run" root; campaign code opens one root per
// campaign.
//
//coolpim:hotpath nilfast disabled tracer hands out the inert zero Span without allocating
func (t *SpanTracer) StartRoot(at units.Time, name SpanName) Span {
	if t == nil {
		return Span{}
	}
	sp := t.start(at, name, 0, true)
	return sp
}

// StartSpan opens a span parented under the current root span (or as a
// root itself if none is open). Components on the simulation hot path
// use this: their spans hang off the run's "engine.run" root without
// the component having to thread the root's ID around.
//
//coolpim:hotpath nilfast disabled tracer hands out the inert zero Span without allocating (TestNilSpanTracerZeroAlloc pins this)
func (t *SpanTracer) StartSpan(at units.Time, name SpanName) Span {
	if t == nil {
		return Span{}
	}
	return t.start(at, name, t.currentRoot(), false)
}

// StartChild opens a span under an explicit parent (0 for a root
// without current-root tracking). Use this to build causal edges that
// cross components — e.g. a kernel span parenting its block spans.
//
//coolpim:hotpath nilfast disabled tracer hands out the inert zero Span without allocating
func (t *SpanTracer) StartChild(at units.Time, name SpanName, parent SpanID) Span {
	if t == nil {
		return Span{}
	}
	return t.start(at, name, parent, false)
}

func (t *SpanTracer) currentRoot() SpanID {
	t.mu.Lock()
	r := t.curRoot
	t.mu.Unlock()
	return r
}

// admit applies the per-name sampler and the cap to one record of name
// at at, and reports whether it may be stored.
//
//coolpim:locked mu
func (t *SpanTracer) admit(at units.Time, name SpanName) bool {
	if n := int(name); n > 0 && n <= len(t.gaps) && t.gaps[n-1].gap > 0 {
		g := &t.gaps[n-1]
		if g.seen && at < g.last+g.gap {
			g.suppressed++
			return false
		}
		g.seen = true
		g.last = at
	}
	if len(t.spans) >= t.maxSpans {
		t.dropped++
		return false
	}
	return true
}

func (t *SpanTracer) start(at units.Time, name SpanName, parent SpanID, root bool) Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.admit(at, name) {
		return Span{}
	}
	t.nextID++
	rec := spanRec{id: t.nextID, parent: parent, name: name, start: at, end: spanOpen}
	if t.wall != nil {
		rec.wallStartNs = t.wall()
	}
	t.spans = append(t.spans, rec)
	if root {
		t.curRoot = rec.id
	}
	return Span{t: t, idx: int32(len(t.spans) - 1)}
}

// ID returns the span's identifier (0 for the inert zero Span), for use
// as an explicit parent in StartChild.
//
//coolpim:hotpath nilfast the inert zero Span reads no state
func (s Span) ID() SpanID {
	if s.t == nil {
		return 0
	}
	s.t.mu.Lock()
	id := s.t.spans[s.idx].id
	s.t.mu.Unlock()
	return id
}

// End closes the span at simulated time at.
//
//coolpim:hotpath nilfast ending the inert zero Span is a no-op
func (s Span) End(at units.Time) {
	if s.t == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	rec := &t.spans[s.idx]
	rec.end = at
	if t.wall != nil {
		rec.wallEndNs = t.wall()
	}
	if rec.parent == 0 && t.curRoot == rec.id {
		t.curRoot = 0
	}
	fl := t.flight
	var name string
	var start units.Time
	if fl != nil {
		name = t.nameStr(rec.name)
		start = rec.start
	}
	t.mu.Unlock()
	if fl != nil {
		fl.Record(at, "span", fmt.Sprintf(`"name":%q,"start_ps":%d,"dur_ps":%d`,
			name, int64(start), int64(at-start)))
	}
}

// nameStr resolves a name handle; callers hold t.mu.
//
//coolpim:locked mu
func (t *SpanTracer) nameStr(n SpanName) string {
	if n == 0 || int(n) > len(t.names) {
		return ""
	}
	return t.names[n-1]
}

// Len returns the number of recorded spans and marks.
//
//coolpim:hotpath nilfast disabled-tracer read is allocation-free
func (t *SpanTracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many spans and marks the in-memory cap discarded.
//
//coolpim:hotpath nilfast disabled-tracer read is allocation-free
func (t *SpanTracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// NameCount is one row of the stream's by-name summary.
type NameCount struct {
	Name       string
	Count      int    // spans or marks stored
	Suppressed uint64 // records the SetMinGap sampler discarded
}

// CountsByName returns the stored and rate-limited record counts of
// every name that has either, sorted by name.
func (t *SpanTracer) CountsByName() []NameCount {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	counts := make([]NameCount, len(t.names))
	for i, n := range t.names {
		counts[i].Name = n
	}
	for _, r := range t.spans {
		if r.name > 0 {
			counts[r.name-1].Count++
		}
	}
	for i, g := range t.gaps {
		counts[i].Suppressed = g.suppressed
	}
	t.mu.Unlock()
	out := counts[:0]
	for _, c := range counts {
		if c.Count > 0 || c.Suppressed > 0 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SpanExport is the externalized form of one record of the stream:
// name resolved, wall stamps deliberately absent (see SpanTracer). A
// span has an ID (from 1) and End equal to -1 while it is open. A mark
// has ID 0, Start == End == its time, and Args, its payload: a JSON
// object body without the braces, e.g. `"temp_c":86.20`.
type SpanExport struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Start  units.Time
	End    units.Time // -1 = still open
	Args   string
}

// IsMark reports whether the record is a mark rather than a span.
func (s SpanExport) IsMark() bool { return s.ID == 0 }

// Open reports whether the span had not ended at export time.
func (s SpanExport) Open() bool { return !s.IsMark() && s.End == spanOpen }

// Export returns a copy of all recorded spans and marks in record
// order (a span is recorded when it starts).
func (t *SpanTracer) Export() []SpanExport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanExport, len(t.spans))
	for i, r := range t.spans {
		out[i] = SpanExport{ID: r.id, Parent: r.parent, Name: t.nameStr(r.name), Start: r.start, End: r.end, Args: r.args}
	}
	return out
}

// WriteJSONL writes the stream as one JSON object per line (see
// WriteSpansJSONL for the format).
func (t *SpanTracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	return WriteSpansJSONL(w, t.Export())
}

// WriteSpansJSONL writes spans and marks as one JSON object per line:
//
//	{"id":3,"parent":1,"name":"thermal.tick","start_ps":10000000,"end_ps":10002000}
//	{"parent":1,"name":"thermal.warning.raise","t_ps":10002000,"args":{"temp_c":86.20}}
//
// Open spans carry "end_ps":-1. The format round-trips byte-identically
// through ParseSpansJSONL.
func WriteSpansJSONL(w io.Writer, records []SpanExport) error {
	var sb strings.Builder
	for _, s := range records {
		sb.Reset()
		if s.IsMark() {
			fmt.Fprintf(&sb, `{"parent":%d,"name":%s,"t_ps":%d,"args":{%s}}`,
				uint32(s.Parent), jsonQuote(s.Name), int64(s.Start), s.Args)
		} else {
			fmt.Fprintf(&sb, `{"id":%d,"parent":%d,"name":%s,"start_ps":%d,"end_ps":%d}`,
				uint32(s.ID), uint32(s.Parent), jsonQuote(s.Name), int64(s.Start), int64(s.End))
		}
		sb.WriteByte('\n')
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// jsonQuote renders s as a JSON string. On printable ASCII it matches
// %q, and it stays valid JSON for any other string.
func jsonQuote(s string) string {
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(s) // a string always encodes
	return strings.TrimSuffix(sb.String(), "\n")
}

// The two line shapes, by their exact field sets.
var (
	spanFields = []string{"id", "parent", "name", "start_ps", "end_ps"}
	markFields = []string{"parent", "name", "t_ps", "args"}
)

// ParseSpansJSONL parses the WriteSpansJSONL format back into spans and
// marks. It is strict: a line must be exactly one JSON object holding
// every field of one shape and no other field, a span's id is never 0
// and a mark's args is an object. Any other input — an unrelated JSONL
// file, {} — is an error naming the line. Writing what it returns gives
// canonical bytes, so a canonical file round-trips byte-identically.
func ParseSpansJSONL(r io.Reader) ([]SpanExport, error) {
	var out []SpanExport
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rec, err := parseSpanLine(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: spans line %d: %w", lineNo, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSpanLine(line []byte) (SpanExport, error) {
	var fields map[string]json.RawMessage
	dec := json.NewDecoder(bytes.NewReader(line))
	if err := dec.Decode(&fields); err != nil {
		return SpanExport{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return SpanExport{}, errors.New("trailing data after the record")
	}
	want := spanFields
	if _, ok := fields["id"]; !ok {
		want = markFields
	}
	for _, k := range want {
		if _, ok := fields[k]; !ok || len(fields) != len(want) {
			return SpanExport{}, fmt.Errorf("want exactly the fields of a span (%s) or of a mark (%s)",
				strings.Join(spanFields, ", "), strings.Join(markFields, ", "))
		}
	}
	var v struct {
		ID      uint32
		Parent  uint32
		Name    string
		StartPs int64 `json:"start_ps"`
		EndPs   int64 `json:"end_ps"`
		TPs     int64 `json:"t_ps"`
		Args    json.RawMessage
	}
	if err := json.Unmarshal(line, &v); err != nil {
		return SpanExport{}, err
	}
	rec := SpanExport{ID: SpanID(v.ID), Parent: SpanID(v.Parent), Name: v.Name, Start: units.Time(v.StartPs), End: units.Time(v.EndPs)}
	if len(want) == len(spanFields) {
		if v.ID == 0 {
			return SpanExport{}, errors.New("span id 0 (span IDs start at 1)")
		}
		return rec, nil
	}
	var args bytes.Buffer
	if json.Compact(&args, v.Args) != nil || args.Bytes()[0] != '{' {
		return SpanExport{}, errors.New("mark args is not a JSON object")
	}
	rec.Start, rec.End, rec.Args = units.Time(v.TPs), units.Time(v.TPs), string(args.Bytes()[1:args.Len()-1])
	return rec, nil
}

// spanSnapshotRow is the /spans live-view record; unlike SpanExport it
// carries the wall-clock stamps (the live view is not a deterministic
// artifact). A mark has ID 0 and its payload in Args.
type spanSnapshotRow struct {
	ID          uint32          `json:"id"`
	Parent      uint32          `json:"parent"`
	Name        string          `json:"name"`
	StartMs     float64         `json:"start_ms"`
	EndMs       float64         `json:"end_ms"` // open spans carry -1 and "open":true
	Open        bool            `json:"open,omitempty"`
	Args        json.RawMessage `json:"args,omitempty"`
	WallStartNs int64           `json:"wall_start_ns,omitempty"`
	WallEndNs   int64           `json:"wall_end_ns,omitempty"`
}

// snapshotJSON renders the most recent max records (0 = all) as a JSON
// array for the diag server's /spans endpoint.
func (t *SpanTracer) snapshotJSON(max int) []byte {
	if t == nil {
		return []byte("[]")
	}
	t.mu.Lock()
	spans := t.spans
	if max > 0 && len(spans) > max {
		spans = spans[len(spans)-max:]
	}
	rows := make([]spanSnapshotRow, len(spans))
	for i, r := range spans {
		rows[i] = spanSnapshotRow{
			ID:          uint32(r.id),
			Parent:      uint32(r.parent),
			Name:        t.nameStr(r.name),
			StartMs:     r.start.Milliseconds(),
			EndMs:       r.end.Milliseconds(),
			Open:        r.id != 0 && r.end == spanOpen,
			WallStartNs: r.wallStartNs,
			WallEndNs:   r.wallEndNs,
		}
		if r.id == 0 {
			rows[i].Args = json.RawMessage("{" + r.args + "}")
		}
		if rows[i].Open {
			rows[i].EndMs = -1
		}
	}
	t.mu.Unlock()
	b, err := json.Marshal(rows)
	if err != nil {
		return []byte("[]")
	}
	return b
}
