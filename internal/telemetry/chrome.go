package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// WriteChromeTrace writes a span stream in the Chrome trace_event JSON
// array format, directly loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Records keep their stream order:
//
//   - each closed span becomes a "complete" event (ph "X") with ts/dur
//     in microseconds of simulated time and its id/parent in args;
//   - each mark becomes an "instant" event (ph "i") with its parent and
//     payload fields in args.
//
// Everything runs under pid 1; tracks (tid) are assigned per name
// family — the part of the name before the first dot — in
// first-appearance order, so "gpu.*", "hmc.*", "thermal.*" land on
// separate swimlanes. Open spans are skipped (a normal run closes all
// spans before export). The output is deterministic: same input, same
// bytes.
func WriteChromeTrace(w io.Writer, records []SpanExport) error {
	var sb strings.Builder
	sb.WriteString("[")
	tids := make(map[string]int)
	tidFor := func(name string) int {
		fam, _, _ := strings.Cut(name, ".")
		id, ok := tids[fam]
		if !ok {
			id = len(tids) + 1
			tids[fam] = id
		}
		return id
	}
	sep := "\n"
	for _, s := range records {
		if s.Open() {
			continue
		}
		sb.WriteString(sep)
		sep = ",\n"
		if s.IsMark() {
			args := ""
			if s.Args != "" {
				args = "," + s.Args
			}
			fmt.Fprintf(&sb, `{"name":%s,"cat":"mark","ph":"i","ts":%.6f,"pid":1,"tid":%d,"s":"p","args":{"parent":%d%s}}`,
				jsonQuote(s.Name), float64(s.Start)/1e6, tidFor(s.Name), uint32(s.Parent), args)
			continue
		}
		fmt.Fprintf(&sb, `{"name":%s,"cat":"span","ph":"X","ts":%.6f,"dur":%.6f,"pid":1,"tid":%d,"args":{"id":%d,"parent":%d}}`,
			jsonQuote(s.Name), float64(s.Start)/1e6, float64(s.End-s.Start)/1e6, tidFor(s.Name), uint32(s.ID), uint32(s.Parent))
	}
	sb.WriteString("\n]\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
