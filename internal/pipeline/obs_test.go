package pipeline_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"odr/internal/obs"
	"odr/internal/pictor"
	"odr/internal/pipeline"
	"odr/internal/regulator"
)

func odrFactory(fps float64) pipeline.PolicyFactory {
	return func(ctx *regulator.Ctx) regulator.Policy {
		return regulator.NewODR(ctx, regulator.ODROptions{TargetFPS: fps})
	}
}

// TestTimelineChromeTrace runs the ODR pipeline with tracing attached and
// parses the Chrome trace-event export the way chrome://tracing would: it
// must contain render/copy/encode/tx/decode spans, display instants, and
// at least one MulBuf-drop and one PriorityFrame instant.
func TestTimelineChromeTrace(t *testing.T) {
	tr := obs.NewTracer(1 << 16)
	b := pictor.IM
	r := pipeline.Run(pipeline.Config{
		Workload: b.Params(),
		Scale:    pictor.Scale(pictor.PrivateCloud, pictor.R720p),
		Net:      pictor.Network(pictor.PrivateCloud),
		Policy:   odrFactory(0),
		Duration: 10 * time.Second,
		Seed:     1,
		Trace:    tr,
	})
	if r.FramesRendered == 0 {
		t.Fatal("no frames rendered")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	spans := map[string]int{}
	instants := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans[ev.Name]++
			if ev.Dur < 0 {
				t.Fatalf("span %q has negative duration %v", ev.Name, ev.Dur)
			}
		case "i":
			instants[ev.Name]++
		}
	}
	for _, want := range []string{"render", "copy", "encode", "tx", "decode"} {
		if spans[want] == 0 {
			t.Errorf("no %q spans in trace (spans: %v)", want, spans)
		}
	}
	for _, want := range []string{"display", "input", "mulbuf-drop", "priority-frame"} {
		if instants[want] == 0 {
			t.Errorf("no %q instants in trace (instants: %v)", want, instants)
		}
	}
}

// TestTimelinePacerSpans checks that a TargetFPS > 0 run records the
// pacer's requested delays as spans on the pacer track.
func TestTimelinePacerSpans(t *testing.T) {
	tr := obs.NewTracer(1 << 16)
	b := pictor.IM
	pipeline.Run(pipeline.Config{
		Workload: b.Params(),
		Scale:    pictor.Scale(pictor.PrivateCloud, pictor.R720p),
		Net:      pictor.Network(pictor.PrivateCloud),
		Policy:   odrFactory(30), // well under the IM render rate: must pace
		Duration: 5 * time.Second,
		Seed:     1,
		Trace:    tr,
	})
	var paces int
	for _, ev := range tr.Events() {
		if ev.Track == obs.TrackPacer && ev.Name == "pace" && ev.Phase == obs.PhaseSpan {
			paces++
			if ev.Dur <= 0 {
				t.Fatalf("pace span with non-positive duration: %+v", ev)
			}
		}
	}
	if paces == 0 {
		t.Fatal("no pace spans recorded at 30 FPS target")
	}
}

// TestTracingDoesNotChangeResults guards the zero-interference property:
// an attached tracer must not alter the simulation outcome.
func TestTracingDoesNotChangeResults(t *testing.T) {
	run := func(tr *obs.Tracer) *pipeline.Result {
		b := pictor.IM
		return pipeline.Run(pipeline.Config{
			Workload: b.Params(),
			Scale:    pictor.Scale(pictor.PrivateCloud, pictor.R720p),
			Net:      pictor.Network(pictor.PrivateCloud),
			Policy:   odrFactory(60),
			Duration: 5 * time.Second,
			Seed:     7,
			Trace:    tr,
		})
	}
	plain := run(nil)
	traced := run(obs.NewTracer(1 << 16))
	if plain.FramesRendered != traced.FramesRendered ||
		plain.FramesDisplayed != traced.FramesDisplayed ||
		plain.FramesDropped != traced.FramesDropped ||
		plain.ClientFPS != traced.ClientFPS {
		t.Fatalf("tracing changed the run: plain=%+v traced=%+v", plain, traced)
	}
}
