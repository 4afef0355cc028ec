package gearbox

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"gearbox/internal/partition"
	"gearbox/internal/semiring"
)

// longHeavyFrontier is a random frontier plus every long column, in
// ascending index order, so step 3 exercises the long fragments.
func longHeavyFrontier(t *testing.T, m *Machine, seed int64) []FrontierEntry {
	t.Helper()
	entries := randomFrontier(m.Plan().Matrix.NumRows, 50, seed)
	for c := int32(0); c <= m.Plan().LastLong; c++ {
		if !slices.ContainsFunc(entries, func(e FrontierEntry) bool { return e.Index == c }) {
			entries = append(entries, FrontierEntry{Index: c, Value: 1 + float32(c%5)})
		}
	}
	slices.SortFunc(entries, func(a, b FrontierEntry) int { return int(a.Index) - int(b.Index) })
	return entries
}

// checkLongPosClear asserts step 3 left no long-frontier index behind.
func checkLongPosClear(t *testing.T, m *Machine) {
	t.Helper()
	for c, pos := range m.longPos {
		if pos != -1 {
			t.Fatalf("longPos[%d] = %d after the iteration, want -1", c, pos)
		}
	}
}

// TestLongLookupPathsBitIdentical runs the same ascending frontiers through
// step 3's ascending walk and through its caller-order lookup: statistics,
// output frontiers, clock and spatial telemetry must be bit-identical, for
// every Table 4 version at every swept worker count.
func TestLongLookupPathsBitIdentical(t *testing.T) {
	m := testMatrix(t, 43)
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 0} {
				walk := machineWithWorkers(t, m, vc.cfg, semiring.PlusTimes{}, workers, nil)
				ordered := machineWithWorkers(t, m, vc.cfg, semiring.PlusTimes{}, workers, nil)
				entries := longHeavyFrontier(t, walk, 17)
				spW, spO := attachSpatial(walk), attachSpatial(ordered)
				stW, frW := runChainedWalk(t, walk, entries, 3, true)
				stO, frO := runChainedWalk(t, ordered, entries, 3, false)
				if walk.Plan().LastLong >= 0 && !walk.longAsc {
					t.Fatal("ascending frontier did not take the ascending walk")
				}
				if ordered.longAsc {
					t.Fatal("walk=false still took the ascending walk")
				}
				checkLongPosClear(t, walk)
				if !reflect.DeepEqual(stW, stO) {
					t.Fatalf("Workers=%d: IterStats diverge:\nwalk:    %+v\nordered: %+v", workers, stW, stO)
				}
				if !reflect.DeepEqual(frW, frO) {
					t.Fatalf("Workers=%d: output frontiers diverge", workers)
				}
				if walk.NowNs() != ordered.NowNs() {
					t.Fatalf("Workers=%d: clocks diverge: %v vs %v", workers, walk.NowNs(), ordered.NowNs())
				}
				if !reflect.DeepEqual(spW, spO) {
					t.Fatalf("Workers=%d: spatial telemetry diverges", workers)
				}
			}
		})
	}
}

// TestUnsortedLongFrontierMatchesReference feeds long activations that are
// not strictly ascending, which only the caller-order lookup accepts: all
// long columns descending, and ascending with a repeat, each with one long
// column activated twice. The output must match the CPU reference, which
// folds every entry (the repeat included): exactly for the boolean and
// min-plus semirings, within tolerance for plus-times, whose float sums
// depend on fold order.
func TestUnsortedLongFrontierMatchesReference(t *testing.T) {
	m := testMatrix(t, 44)
	sems := []struct {
		name  string
		sem   semiring.Semiring
		exact bool
	}{
		{"bool", semiring.BoolOrAnd{}, true},
		{"min-plus", semiring.MinPlus{}, true},
		{"plus-times", semiring.PlusTimes{}, false},
	}
	orders := []struct {
		name string
		long func(last int32) []int32
	}{
		{"descending", func(last int32) []int32 {
			var cs []int32
			for c := last; c >= 0; c-- {
				cs = append(cs, c)
			}
			return append(cs, last/2)
		}},
		{"ascending-repeat", func(last int32) []int32 {
			var cs []int32
			for c := int32(0); c <= last; c++ {
				cs = append(cs, c)
				if c == last/2 {
					cs = append(cs, c)
				}
			}
			return cs
		}},
	}
	for _, vc := range versionConfigs() {
		if vc.cfg.Scheme == partition.ColumnOriented {
			continue // no long region
		}
		for _, sc := range sems {
			for _, oc := range orders {
				t.Run(vc.name+"/"+sc.name+"/"+oc.name, func(t *testing.T) {
					mach := machineWithWorkers(t, m, vc.cfg, sc.sem, 0, nil)
					last := mach.Plan().LastLong
					if last < 1 {
						t.Fatalf("LastLong = %d: the plan needs two long columns", last)
					}
					var entries []FrontierEntry
					for _, c := range oc.long(last) {
						entries = append(entries, FrontierEntry{Index: c, Value: 1 + float32(c%3)})
					}
					for _, e := range randomFrontier(m.NumRows, 30, 5) {
						if e.Index > last {
							entries = append(entries, e)
						}
					}
					if _, ok := sc.sem.(semiring.BoolOrAnd); ok {
						for i := range entries {
							entries[i].Value = 1
						}
					}
					f, err := mach.DistributeFrontier(entries)
					if err != nil {
						t.Fatal(err)
					}
					next, _, err := mach.Iterate(f, IterateOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if mach.longAsc {
						t.Fatal("a frontier that is not strictly ascending took the ascending walk")
					}
					checkLongPosClear(t, mach)
					want := refSpMSpV(mach.Plan().Matrix, sc.sem, entries)
					got := next.Entries()
					if len(got) != len(want) {
						t.Fatalf("frontier size %d, want %d", len(got), len(want))
					}
					for _, e := range got {
						w, ok := want[e.Index]
						if !ok {
							t.Fatalf("output[%d] = %v, want absent", e.Index, e.Value)
						}
						if sc.exact && w != e.Value ||
							!sc.exact && math.Abs(float64(w-e.Value)) > 1e-5*math.Max(1, math.Abs(float64(w))) {
							t.Fatalf("output[%d] = %v, want %v", e.Index, e.Value, w)
						}
					}
				})
			}
		}
	}
}
