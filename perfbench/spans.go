package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// spanRecorder keeps the benchmark's own spans in memory: one span per
// call the benchmark makes into a layer, written out as JSONL when the
// run ends. A nil recorder records nothing, which is how timed runs
// keep tracing off.
type spanRecorder struct {
	t0 time.Time

	mu   sync.Mutex
	next uint64
	recs []spanRec
}

// spanRec is one finished span. Spans of one operation share Op; Parent
// is the ID of the span that caused this one (0 for a root).
type spanRec struct {
	Op      uint64            `json:"op"`
	ID      uint64            `json:"id"`
	Parent  uint64            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartUs float64           `json:"start_us"`
	DurUs   float64           `json:"dur_us"`
	Tags    map[string]string `json:"tags,omitempty"`
}

// span is an open span; the zero value (from a nil recorder) is inert.
type span struct {
	r     *spanRecorder
	rec   spanRec
	start time.Time
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// root opens the first span of a new operation.
func (r *spanRecorder) root(name string) span { return r.rootAt(name, time.Now()) }

// rootAt is root with an explicit start time.
func (r *spanRecorder) rootAt(name string, start time.Time) span {
	if r == nil {
		return span{}
	}
	id := r.newID()
	return span{r: r, start: start, rec: spanRec{Op: id, ID: id, Name: name}}
}

// child opens a span caused by parent, in parent's operation.
func (p span) child(name string) span { return p.childAt(name, time.Now()) }

// childAt is child with an explicit start time, for spans whose start
// was observed earlier (a request's due time, a cell's start hook).
func (p span) childAt(name string, start time.Time) span {
	if p.r == nil {
		return span{}
	}
	return span{r: p.r, start: start, rec: spanRec{Op: p.rec.Op, ID: p.r.newID(), Parent: p.rec.ID, Name: name}}
}

func (r *spanRecorder) newID() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// end closes the span now, with optional key/value tag pairs.
func (s span) end(tags ...string) { s.endAt(time.Now(), tags...) }

func (s span) endAt(end time.Time, tags ...string) {
	if s.r == nil {
		return
	}
	rec := s.rec
	rec.StartUs = float64(s.start.Sub(s.r.t0)) / float64(time.Microsecond)
	rec.DurUs = float64(end.Sub(s.start)) / float64(time.Microsecond)
	if len(tags) > 0 {
		rec.Tags = make(map[string]string, len(tags)/2)
		for i := 0; i+1 < len(tags); i += 2 {
			rec.Tags[tags[i]] = tags[i+1]
		}
	}
	s.r.mu.Lock()
	s.r.recs = append(s.r.recs, rec)
	s.r.mu.Unlock()
}

// writeJSONL writes every finished span, one JSON object per line.
func (r *spanRecorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, rec := range r.recs {
		if err := enc.Encode(rec); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
