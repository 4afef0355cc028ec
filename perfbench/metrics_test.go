package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// parseResult reads a result line back, rejecting unknown keys.
func parseResult(line string) (result, error) {
	var r result
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, err
	}
	return r, r.validate()
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{19, 50, false}, // p50 leaves 9 beyond: rule not met, median reported
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending, so sorting matters
		}
		p, v, ok := tailPercentile(xs)
		if p != c.wantP || ok != c.ok {
			t.Errorf("n=%d: percentile %v ok=%v, want %v ok=%v", c.n, p, ok, c.wantP, c.ok)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: p%v = %v leaves %d samples beyond, want >= %d", c.n, p, v, beyond, minBeyond)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestMetricNamesFollowTheGrammar(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, bad := range []string{"", "-lead", "has space", "semi;colon", "µs", strings.Repeat("x", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json in step with the
// metrics the benchmark prints.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(section string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s lists %d metrics, the benchmark prints %d", section, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), the benchmark prints %s (%s)", section, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no driver", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
}

func TestResultRoundTrips(t *testing.T) {
	values := map[string]float64{}
	for i, d := range endToEnd {
		values[d.name] = 1.25 * float64(i+1)
	}
	r, err := newResult(endToEnd, values, 12, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseResult(string(line))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Fatalf("round trip changed the result:\n got %+v\nwant %+v", back, r)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("result keys = %v, want exactly correct, attempted, failed, metrics", keys)
	}

	if _, err := parseResult(strings.Replace(string(line), `"failed"`, `"extra":1,"failed"`, 1)); err == nil {
		t.Error("unknown key accepted")
	}
	delete(values, "setup_s")
	if _, err := newResult(endToEnd, values, 12, 1, true); err == nil {
		t.Error("missing metric accepted")
	}
	values["setup_s"] = math.NaN()
	if _, err := newResult(endToEnd, values, 12, 1, true); err == nil {
		t.Error("NaN value accepted")
	}
	values["setup_s"] = 1
	if _, err := newResult(endToEnd, values, 0, 0, true); err == nil {
		t.Error("zero attempts accepted")
	}
}

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var l spanLog
	root := l.add("request", 0, -1, 1, at(0), at(100))
	l.add("a", 0, root, 1, at(10), at(40))
	l.add("b", 0, root, 1, at(30), at(60)) // overlaps a: union is 10..60
	c := l.add("c", 0, root, 1, at(90), at(120))
	l.add("d", 0, c, 1, at(95), at(100))
	self := l.selfTimes()
	want := map[string]time.Duration{
		"request": 40 * time.Millisecond, // 100 - union(10..60, 90..100)
		"a":       30 * time.Millisecond,
		"b":       30 * time.Millisecond,
		"c":       25 * time.Millisecond, // c runs past its parent; its own time still counts
		"d":       5 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	if w := l.rootWall(); w != 100*time.Millisecond {
		t.Fatalf("root wall = %v, want 100ms", w)
	}
}
