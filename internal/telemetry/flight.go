package telemetry

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"coolpim/internal/units"
)

// FlightRecorder keeps a fixed-size ring of the most recent
// observability records — marks, thermal snapshots and span closures —
// so a crashing or wedged run can ship its own evidence: the campaign
// runner dumps the ring on *RunPanicError / *DeadlineError, and
// coolpim-sim dumps it on SIGQUIT or panic.
//
// A nil *FlightRecorder is the disabled state: every method returns
// immediately without allocating. An enabled recorder is safe for
// concurrent use (the collector goroutine may dump the ring while an
// abandoned deadline-exceeded attempt is still recording into it).
type FlightRecorder struct {
	mu   sync.Mutex
	buf  []flightEntry //coolpim:guard mu
	cap  int           // immutable after NewFlightRecorder
	next int           //coolpim:guard mu (write position once the ring is full)
	seq  uint64        //coolpim:guard mu
}

type flightEntry struct {
	seq  uint64
	at   units.Time
	kind string
	data string
}

// DefaultFlightCapacity is the ring size used by harness wiring.
const DefaultFlightCapacity = 4096

// NewFlightRecorder returns a recorder holding the last capacity
// records (non-positive capacity falls back to DefaultFlightCapacity).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{buf: make([]flightEntry, 0, capacity), cap: capacity}
}

// Record appends one entry; data must be a valid JSON object body
// (comma-separated `"key":value` pairs) or empty. The oldest entry is
// evicted once the ring is full.
//
//coolpim:hotpath nilfast disabled (nil) recorder returns before touching the ring
func (f *FlightRecorder) Record(at units.Time, kind, data string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.seq++
	e := flightEntry{seq: f.seq, at: at, kind: kind, data: data}
	if len(f.buf) < f.cap {
		f.buf = append(f.buf, e)
	} else {
		f.buf[f.next] = e
		f.next = (f.next + 1) % f.cap
	}
	f.mu.Unlock()
}

// Thermal records one thermal-coupling snapshot (the peak DRAM
// temperature after a coupler tick). Arguments are scalars so call
// sites stay allocation-free; the JSON rendering happens here, on the
// enabled path only.
//
//coolpim:hotpath nilfast disabled (nil) recorder skips the JSON rendering entirely
func (f *FlightRecorder) Thermal(at units.Time, temp units.Celsius) {
	if f == nil {
		return
	}
	f.Record(at, "thermal", fmt.Sprintf(`"temp_c":%.2f`, float64(temp)))
}

// Len returns the number of buffered entries.
//
//coolpim:hotpath nilfast disabled-recorder read is allocation-free
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.buf)
}

// Seq returns the sequence number of the most recent record (0 if none).
//
//coolpim:hotpath nilfast disabled-recorder read is allocation-free
func (f *FlightRecorder) Seq() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// WriteJSONL dumps the ring oldest-first, one JSON object per line:
//
//	{"seq":17,"t_ps":12000000,"t_ms":0.012000,"kind":"thermal","temp_c":86.20}
//
// seq is the global record sequence number, so a dump of a full ring
// shows how many earlier records were evicted (first seq > 1).
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	ordered := make([]flightEntry, 0, len(f.buf))
	if len(f.buf) < f.cap {
		ordered = append(ordered, f.buf...)
	} else {
		ordered = append(ordered, f.buf[f.next:]...)
		ordered = append(ordered, f.buf[:f.next]...)
	}
	f.mu.Unlock()
	var sb strings.Builder
	for _, e := range ordered {
		sb.Reset()
		fmt.Fprintf(&sb, `{"seq":%d,"t_ps":%d,"t_ms":%.6f,"kind":%q`,
			e.seq, int64(e.at), e.at.Milliseconds(), e.kind)
		if e.data != "" {
			sb.WriteByte(',')
			sb.WriteString(e.data)
		}
		sb.WriteString("}\n")
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// DumpFile writes the ring to path (creating or truncating it).
func (f *FlightRecorder) DumpFile(path string) error {
	if f == nil {
		return nil
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.WriteJSONL(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
