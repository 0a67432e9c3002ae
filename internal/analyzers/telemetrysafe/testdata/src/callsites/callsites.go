// Package callsites is analyzer testdata for telemetrysafe's call-site
// rule: arguments to instrument methods are evaluated before the
// callee's nil guard, so they must not allocate unless an enclosing
// check proved telemetry enabled.
package callsites

import (
	"fmt"

	"coolpim/internal/telemetry"
	"coolpim/internal/units"
)

func marks(st *telemetry.SpanTracer, at units.Time, n telemetry.SpanName, vault int, name string) {
	st.Mark(at, n, fmt.Sprintf(`"vault":%d`, vault)) // want `fmt.Sprintf call is evaluated before SpanTracer.Mark`
	st.Mark(at, n, `"vault":3`)                      // ok: constant payload
	st.Mark(at, n, `"name":`+name)                   // want `non-constant string concatenation`
	st.Mark(at, n, `"a":`+`1`)                       // ok: folded at compile time
	st.PoolInit(at, "sw-"+name, vault)               // want `non-constant string concatenation`
	st.PoolInit(at, name, vault)                     // ok: the emitter formats behind its nil guard

	if st != nil {
		st.Mark(at, n, fmt.Sprintf(`"vault":%d`, vault)) // ok: behind an explicit nil guard
	}
}

func hub(h *telemetry.Telemetry, at units.Time, n telemetry.SpanName, v int) {
	if h.Enabled() {
		h.Spans.Mark(at, n, fmt.Sprintf(`"v":%d`, v)) // ok: behind an Enabled() guard
	}
}

func spans(st *telemetry.SpanTracer, at units.Time, key string) {
	st.Name("job:" + key) // want `non-constant string concatenation`
	st.Name("thermal.tick") // ok: constant name
	n := st.Name(key)       // ok: plain value argument
	st.StartSpan(at, n)

	if st != nil {
		st.Name("job:" + key) // ok: behind an explicit nil guard
	}
}

func flight(fr *telemetry.FlightRecorder, at units.Time, temp float64) {
	fr.Record(at, "thermal", fmt.Sprintf(`"temp_c":%.2f`, temp)) // want `fmt.Sprintf call is evaluated before FlightRecorder.Record`
	fr.Record(at, "thermal", `"temp_c":85`)                      // ok: constant payload
}
