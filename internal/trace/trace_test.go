package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenRecorder replays a fixed timeline — two iterations of three phases
// with counter samples between them — so its serialization is stable.
func goldenRecorder() *Recorder {
	r := New()
	hook := r.Hook()
	r.Counter("frontier-size", 0, 4)
	hook("step1", 100)
	hook("step2", 250)
	r.Counter("dispatch-buffer-occupancy-pairs", 250, 12)
	hook("step3", 400)
	hook("step1", 450)
	hook("step2", 600)
	r.Counter("dispatch-buffer-occupancy-pairs", 600, 7)
	hook("step3", 900)
	r.Counter("frontier-size", 900, 9)
	return r
}

func TestRecorderBuildsCompleteEvents(t *testing.T) {
	r := New()
	hook := r.Hook()
	hook("step1", 100)
	hook("step2", 250)
	hook("step3", 250) // zero-duration phase
	var xs []Event
	for _, e := range r.Events() {
		if e.Phase == "X" {
			xs = append(xs, e)
		}
	}
	if len(xs) != 3 {
		t.Fatalf("complete events = %d", len(xs))
	}
	if xs[0].Name != "step1" || xs[0].TsUs != 0 || xs[0].DurUs != 0.1 {
		t.Fatalf("event 0 = %+v", xs[0])
	}
	if xs[1].TsUs != 0.1 || xs[1].DurUs != 0.15 {
		t.Fatalf("event 1 = %+v", xs[1])
	}
	if xs[2].DurUs != 0 {
		t.Fatalf("event 2 = %+v", xs[2])
	}
}

func TestStableTIDsAndThreadMetadata(t *testing.T) {
	r := New()
	hook := r.Hook()
	hook("step1", 100)
	hook("step2", 200)
	hook("step1", 300) // repeat: must reuse step1's lane

	tidOf := map[string]int{}
	named := map[int]string{}
	for _, e := range r.Events() {
		switch e.Phase {
		case "X":
			if e.PID == 0 {
				t.Fatalf("complete event %q has pid 0; Perfetto merges it into the catch-all lane", e.Name)
			}
			if e.TID == 0 {
				t.Fatalf("complete event %q has tid 0", e.Name)
			}
			if prev, ok := tidOf[e.Name]; ok && prev != e.TID {
				t.Fatalf("phase %q changed lanes: tid %d then %d", e.Name, prev, e.TID)
			}
			tidOf[e.Name] = e.TID
		case "M":
			if e.Name == "thread_name" {
				named[e.TID] = e.Args["name"].(string)
			}
		}
	}
	if tidOf["step1"] == tidOf["step2"] {
		t.Fatal("distinct phases share a tid")
	}
	for name, tid := range tidOf {
		if named[tid] != name {
			t.Fatalf("tid %d metadata names %q, events carry %q", tid, named[tid], name)
		}
	}
	if r.Events()[0].Name != "process_name" {
		t.Fatalf("first event %+v; want the process_name metadata record", r.Events()[0])
	}
}

func TestCounterEvents(t *testing.T) {
	r := New()
	r.Counter("frontier-size", 2000, 42)
	ev := r.Events()
	if len(ev) != 1 {
		t.Fatalf("events = %d", len(ev))
	}
	c := ev[0]
	if c.Phase != "C" || c.Name != "frontier-size" || c.TsUs != 2 || c.PID == 0 {
		t.Fatalf("counter event = %+v", c)
	}
	if v, ok := c.Args["value"].(float64); !ok || v != 42 {
		t.Fatalf("counter args = %+v", c.Args)
	}
}

// TestWriteJSONRoundTrip pins that WriteJSON's output decodes back to
// exactly what Events reports — including metadata args and counter samples.
func TestWriteJSONRoundTrip(t *testing.T) {
	r := goldenRecorder()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.TraceEvents, r.Events()) {
		t.Fatalf("round trip diverged:\ndecoded: %+v\nrecorded: %+v", doc.TraceEvents, r.Events())
	}
}

// TestGoldenPerfettoFixture locks the serialized trace document against
// testdata/golden_trace.json — a Perfetto-loadable fixture with complete,
// counter and metadata events. Regenerate with -update after an intentional
// format change and re-check it loads in ui.perfetto.dev.
func TestGoldenPerfettoFixture(t *testing.T) {
	r := goldenRecorder()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_trace.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/trace -run Golden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace format drifted from the golden fixture:\ngot:  %s\nwant: %s", buf.Bytes(), want)
	}
	// The fixture must contain every phase kind Perfetto needs.
	for _, ph := range []string{`"ph":"X"`, `"ph":"C"`, `"ph":"M"`} {
		if !strings.Contains(buf.String(), ph) {
			t.Fatalf("fixture lacks %s events", ph)
		}
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	r := New()
	r.Hook()("x", 10)
	ev := r.Events()
	ev[0].Name = "mutated"
	found := false
	for _, e := range r.Events() {
		if e.Name == "x" {
			found = true
		}
	}
	if !found {
		t.Fatal("Events exposed internal storage")
	}
}
