package telemetry

import (
	"fmt"

	"coolpim/internal/units"
)

// Mark records a zero-duration mark named name at simulated time at,
// parented under the current root span (0 when none is open). args is
// the payload: a valid JSON object body (comma-separated `"key":value`
// pairs) or empty. Marks go through the same SetMinGap sampler, cap
// and flight recorder as spans, but take no span ID.
//
//coolpim:hotpath nilfast disabled (nil) tracer marks are no-ops (TestNilTracerZeroAlloc pins this)
func (t *SpanTracer) Mark(at units.Time, name SpanName, args string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.admit(at, name) {
		t.mu.Unlock()
		return
	}
	rec := spanRec{parent: t.curRoot, name: name, start: at, end: at, args: args}
	if t.wall != nil {
		rec.wallStartNs = t.wall()
		rec.wallEndNs = rec.wallStartNs
	}
	t.spans = append(t.spans, rec)
	fl := t.flight
	var nameStr string
	if fl != nil {
		nameStr = t.nameStr(name)
	}
	t.mu.Unlock()
	if fl != nil {
		fd := `"name":` + jsonQuote(nameStr)
		if args != "" {
			fd += "," + args
		}
		fl.Record(at, "mark", fd)
	}
}

// The emitters below are the marks the simulator records; each
// documents its payload fields. Names use a dotted <subsystem>.<event>
// scheme so a stream can be filtered by prefix.

// ThermalWarning marks the cube raising (raised=true) or clearing the
// thermal-warning state (ERRSTAT 0x01 set in response tails).
// Payload: temp_c.
//
//coolpim:hotpath nilfast disabled-tracer mark is a no-op
func (t *SpanTracer) ThermalWarning(at units.Time, raised bool, temp units.Celsius) {
	if t == nil {
		return
	}
	name := "thermal.warning.raise"
	if !raised {
		name = "thermal.warning.clear"
	}
	t.Mark(at, t.Name(name), fmt.Sprintf(`"temp_c":%.2f`, float64(temp)))
}

// PhaseTransition marks a DRAM derating phase change (Table IV).
// Payload: from, to, temp_c.
//
//coolpim:hotpath nilfast disabled-tracer mark is a no-op
func (t *SpanTracer) PhaseTransition(at units.Time, from, to string, temp units.Celsius) {
	if t == nil {
		return
	}
	t.Mark(at, t.Name("thermal.phase"), fmt.Sprintf(`"from":%q,"to":%q,"temp_c":%.2f`, from, to, float64(temp)))
}

// Shutdown marks the cube exceeding the 105 °C operating limit.
// Payload: temp_c.
//
//coolpim:hotpath nilfast disabled-tracer mark is a no-op
func (t *SpanTracer) Shutdown(at units.Time, temp units.Celsius) {
	if t == nil {
		return
	}
	t.Mark(at, t.Name("thermal.shutdown"), fmt.Sprintf(`"temp_c":%.2f`, float64(temp)))
}

// PoolInit marks a throttling mechanism's initial capacity.
// Payload: mechanism, size.
//
//coolpim:hotpath nilfast disabled-tracer mark is a no-op
func (t *SpanTracer) PoolInit(at units.Time, mechanism string, size int) {
	if t == nil {
		return
	}
	t.Mark(at, t.Name("pool.init"), fmt.Sprintf(`"mechanism":%q,"size":%d`, mechanism, size))
}

// PoolResize marks one control update: a SW-DynT token-pool reduction
// or a HW-DynT aggregate PCU-limit step.
// Payload: mechanism, from, to, reason ("warning" or "critical").
//
//coolpim:hotpath nilfast disabled-tracer mark is a no-op
func (t *SpanTracer) PoolResize(at units.Time, mechanism string, from, to int, reason string) {
	if t == nil {
		return
	}
	t.Mark(at, t.Name("pool.resize"), fmt.Sprintf(`"mechanism":%q,"from":%d,"to":%d,"reason":%q`,
		mechanism, from, to, reason))
}

// LinkBackpressure marks link-layer credit flow control delaying a
// request's acceptance by wait beyond its serialization time (a
// congested bank holding back the sender). It can fire per request;
// system wiring rate-limits it with SetMinGap. Payload: link, wait_ns.
//
//coolpim:hotpath nilfast disabled-tracer mark is a no-op
func (t *SpanTracer) LinkBackpressure(at units.Time, link int, wait units.Time) {
	if t == nil {
		return
	}
	t.Mark(at, t.Name("link.backpressure"), fmt.Sprintf(`"link":%d,"wait_ns":%.1f`, link, wait.Nanoseconds()))
}
