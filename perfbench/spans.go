package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer. Spans of one request share req; the
// root span of a request has parent -1.
type span struct {
	name       string
	req        int
	id, parent int
	start, end time.Time
	lane       int // chrome://tracing thread: the client that sent the request
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	spans []span
}

// add records a span and returns its id for use as a parent.
func (l *spanLog) add(name string, req, parent, lane int, start, end time.Time) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{name: name, req: req, id: id, parent: parent, start: start, end: end, lane: lane})
	return id
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover. Children are clipped to
// their parent, and overlapping children are counted once.
func (l *spanLog) selfTimes() map[string]time.Duration {
	kids := make(map[int][]int)
	for _, s := range l.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s.id)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range l.spans {
		out[s.name] += s.end.Sub(s.start) - l.covered(s, kids[s.id])
	}
	return out
}

// covered is the length of the union of the child intervals inside s.
func (l *spanLog) covered(s span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := l.spans[k]
		a, b := c.start, c.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return x.a.Compare(y.a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// rootWall sums the durations of the root spans (the request walls).
func (l *spanLog) rootWall() time.Duration {
	var d time.Duration
	for _, s := range l.spans {
		if s.parent < 0 {
			d += s.end.Sub(s.start)
		}
	}
	return d
}

// chromeEvent is one complete ("X") event of the chrome://tracing format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as a chrome://tracing document, timestamps
// in microseconds from the first span.
func (l *spanLog) writeChrome(path string) error {
	if len(l.spans) == 0 {
		return nil
	}
	epoch := l.spans[0].start
	for _, s := range l.spans {
		if s.start.Before(epoch) {
			epoch = s.start
		}
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{make([]chromeEvent, len(l.spans))}
	for i, s := range l.spans {
		doc.TraceEvents[i] = chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"req": s.req, "parent": s.parent},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
