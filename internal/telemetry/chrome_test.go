package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestChromeTraceShape(t *testing.T) {
	records := []SpanExport{
		{ID: 1, Parent: 0, Name: "engine.run", Start: 0, End: 5_000_000},
		{ID: 2, Parent: 1, Name: "thermal.tick", Start: 1_000_000, End: 1_002_000},
		{Parent: 1, Name: "thermal.warning.raise", Start: 1_500_000, End: 1_500_000, Args: `"temp_c":85.10`},
		{ID: 3, Parent: 1, Name: "gpu.kernel", Start: 2_000_000, End: spanOpen}, // open: skipped
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, records); err != nil {
		t.Fatal(err)
	}

	var entries []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &entries); err != nil {
		t.Fatalf("output is not a trace_event JSON array: %v\n%s", err, buf.String())
	}
	// 2 closed spans + 1 mark, in stream order; the open span is skipped.
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3: %s", len(entries), buf.String())
	}
	for i, e := range entries {
		for _, k := range []string{"name", "ph"} {
			if _, ok := e[k].(string); !ok {
				t.Fatalf("entry %d missing string %q: %v", i, k, e)
			}
		}
		for _, k := range []string{"ts", "pid", "tid"} {
			if _, ok := e[k].(float64); !ok {
				t.Fatalf("entry %d missing numeric %q: %v", i, k, e)
			}
		}
	}
	// Span durations are microseconds (ps / 1e6).
	if entries[0]["ph"] != "X" || entries[0]["dur"].(float64) != 5.0 {
		t.Fatalf("engine.run complete event wrong: %v", entries[0])
	}
	if entries[2]["ph"] != "i" || entries[2]["name"] != "thermal.warning.raise" || entries[2]["ts"].(float64) != 1.5 {
		t.Fatalf("mark should be an instant at 1.5us: %v", entries[2])
	}
	// Same name family ("thermal.*") shares a tid; different family gets
	// its own lane.
	if entries[1]["tid"] == entries[0]["tid"] {
		t.Fatalf("thermal.tick should not share engine.run's tid: %v", entries)
	}
	if entries[2]["tid"] != entries[1]["tid"] {
		t.Fatalf("thermal.warning.raise should share thermal.tick's tid: %v", entries)
	}
	args := entries[2]["args"].(map[string]any)
	if len(args) != 2 || args["temp_c"].(float64) != 85.10 || args["parent"].(float64) != 1 {
		t.Fatalf("mark lost its payload or parent: %v", entries[2])
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	records := []SpanExport{
		{ID: 1, Name: "a.x", Start: 0, End: 10},
		{Name: "c.z", Start: 7, End: 7, Args: `"k":1`},
		{ID: 2, Name: "b.y", Start: 5, End: 15},
	}
	var one, two bytes.Buffer
	if err := WriteChromeTrace(&one, records); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&two, records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatal("chrome trace output is not deterministic")
	}
}
