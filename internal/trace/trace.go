// Package trace records the machine's phase timeline and exports it in the
// Chrome trace-event format (chrome://tracing, Perfetto). Hook a Recorder
// into a Machine with SetTrace and every §5 step becomes a complete event on
// the simulated clock; Counter adds Perfetto counter-track samples (buffer
// occupancy, frontier sizes) the telemetry layer feeds over the same clock.
package trace

import (
	"encoding/json"
	"io"
)

// pid is the single simulated-machine "process" all events belong to.
// Perfetto hides pid-0 rows behind a catch-all lane, so the machine gets a
// real id and a process_name metadata record.
const pid = 1

// Event is one Chrome trace event; timestamps are microseconds. Phases used
// here: "X" complete events (the step timeline), "C" counter samples, and
// "M" metadata (process/thread names).
type Event struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	DurUs float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// Recorder accumulates phase completions and counter samples.
type Recorder struct {
	events []Event
	lastNs float64
	tids   map[string]int // stable lane per phase name, in first-seen order
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// tidFor returns the stable thread id for a phase name, assigning the next
// id — and emitting the Perfetto "M" metadata that names the lane — the
// first time a name appears. The machine announces its process name along
// with the first lane.
func (r *Recorder) tidFor(name string) int {
	if tid, ok := r.tids[name]; ok {
		return tid
	}
	if r.tids == nil {
		r.tids = make(map[string]int)
		r.events = append(r.events, Event{
			Name: "process_name", Phase: "M", PID: pid,
			Args: map[string]any{"name": "gearbox-machine"},
		})
	}
	tid := len(r.tids) + 1
	r.tids[name] = tid
	r.events = append(r.events, Event{
		Name: "thread_name", Phase: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": name},
	})
	return tid
}

// Hook returns the callback to pass to Machine.SetTrace: each completion at
// time atNs closes a phase that started at the previous completion. Every
// distinct phase name gets its own stable TID (plus thread-name metadata),
// so Perfetto renders one labeled lane per §5 step instead of a single
// merged row.
func (r *Recorder) Hook() func(name string, atNs float64) {
	return func(name string, atNs float64) {
		tid := r.tidFor(name)
		r.events = append(r.events, Event{
			Name:  name,
			Phase: "X",
			TsUs:  r.lastNs / 1e3,
			DurUs: (atNs - r.lastNs) / 1e3,
			PID:   pid,
			TID:   tid,
		})
		r.lastNs = atNs
	}
}

// Counter appends one sample to the named Perfetto counter track at simulated
// time atNs. Counter tracks are per-process (no TID); the track is named by
// the event name and carries its sample in args. Recorder satisfies the
// telemetry.CounterRecorder bridge.
func (r *Recorder) Counter(track string, atNs, value float64) {
	r.events = append(r.events, Event{
		Name:  track,
		Phase: "C",
		TsUs:  atNs / 1e3,
		PID:   pid,
		Args:  map[string]any{"value": value},
	})
}

// Label attaches a key=value process label to the trace ("M" process_labels
// metadata; Perfetto shows labels next to the process name). The serving
// layer stamps each run's trace with its correlation ID this way, so a
// trace file alone identifies the request that produced it.
func (r *Recorder) Label(key, value string) {
	r.events = append(r.events, Event{
		Name: "process_labels", Phase: "M", PID: pid,
		Args: map[string]any{"labels": key + "=" + value},
	})
}

// Len reports recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Events returns a copy of the recorded events.
func (r *Recorder) Events() []Event { return append([]Event(nil), r.events...) }

// WriteJSON emits the chrome://tracing JSON document.
func (r *Recorder) WriteJSON(w io.Writer) error {
	doc := struct {
		TraceEvents []Event `json:"traceEvents"`
	}{TraceEvents: r.events}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
