package experiments

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestTracingNeverChangesResults is the tracing contract: Fig. 7's points,
// run with one event sink installed on every testbed, produce the same
// figure and the same registry JSON as with no sink at all.
func TestTracingNeverChangesResults(t *testing.T) {
	run := func(sink *obs.Sink) (md, csv, metrics string) {
		arena := sim.NewArena()
		points := fig07Points(sink)
		results := make([]any, len(points))
		merged := obs.NewRegistry()
		for i, p := range points {
			reg := obs.NewRegistry()
			results[i] = p.Run(PointSeed("fig07", p.Label), reg, arena)
			merged.Merge(reg)
		}
		var buf bytes.Buffer
		if err := merged.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		f := buildFig07(results)
		return f.Markdown(), f.CSV(), buf.String()
	}
	offMD, offCSV, offMetrics := run(nil)
	sink := obs.NewSink(1<<16, 1<<15)
	onMD, onCSV, onMetrics := run(sink)
	if len(sink.Events()) == 0 || len(sink.Spans()) == 0 {
		t.Fatalf("sink recorded %d instants and %d spans; the comparison would show nothing",
			len(sink.Events()), len(sink.Spans()))
	}
	if onMD != offMD || onCSV != offCSV {
		t.Errorf("figure changed with tracing on\n--- off ---\n%s\n--- on ---\n%s", offMD, onMD)
	}
	if onMetrics != offMetrics {
		t.Error("registry JSON changed with tracing on")
	}
}
