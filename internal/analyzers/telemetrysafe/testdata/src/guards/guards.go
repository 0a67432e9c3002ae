// Package telemetry is analyzer testdata loaded under the import path
// coolpim/internal/telemetry: exported pointer-receiver methods on
// instrument types must open with a nil-receiver guard so that a nil
// instrument is the disabled state.
package telemetry

// SpanTracer mimics an instrument type (the name is what matters).
type SpanTracer struct{ n int }

// Mark is guarded: ok.
func (t *SpanTracer) Mark(msg string) {
	if t == nil {
		return
	}
	t.n++
}

// MarkIf is guarded with a compound short-circuit condition: ok.
func (t *SpanTracer) MarkIf(cond bool, msg string) {
	if t == nil || !cond {
		return
	}
	t.n++
}

func (t *SpanTracer) StartSpan(name int) { // want `exported SpanTracer.StartSpan must begin with`
	t.n++
}

// Enabled is the predicate shape, dereferencing nothing: ok.
func (t *SpanTracer) Enabled() bool { return t != nil }

// mark is unexported and runs post-guard: ok.
func (t *SpanTracer) mark(msg string) { t.n++ }

// Len guards via reversed operands: ok.
func (t *SpanTracer) Len() int {
	if nil == t {
		return 0
	}
	return t.n
}

// Tracer is not an instrument (the name is what matters): ok unguarded.
type Tracer struct{ n int }

// Emit may assume a live value.
func (t *Tracer) Emit(msg string) { t.n++ }

// Registry is registration-time plumbing, exempt by design: ok.
type Registry struct{ names map[string]bool }

// Claim may assume a live registry.
func (r *Registry) Claim(name string) { r.names[name] = true }

// FlightRecorder mimics the crash-dump ring: nil means not recording.
type FlightRecorder struct{ n int }

// Record is guarded: ok.
func (f *FlightRecorder) Record(kind string) {
	if f == nil {
		return
	}
	f.n++
}

func (f *FlightRecorder) Dump() int { // want `exported FlightRecorder.Dump must begin with`
	return f.n
}
