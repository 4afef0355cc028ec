//go:build !race

// AllocsPerRun measurements are meaningless under the race detector (its
// instrumentation allocates), so this file is excluded from -race runs; CI
// covers it through the non-race benchmark smoke step.

package gearbox

import (
	"testing"

	"gearbox/internal/obs"
	"gearbox/internal/partition"
	"gearbox/internal/semiring"
	"gearbox/internal/telemetry"
)

// TestIterateSteadyStateAllocs is the tentpole's regression test: once an
// application recycles its frontiers and extracts entries through a reused
// buffer, a full DistributeFrontier → Iterate → AppendEntries cycle allocates
// nothing. Swept over the Table 4 versions so the V2 logic-layer path, the
// V3 replica reduction and the hypothetical-V2 short fold all stay on the
// pooled-scratch path.
func TestIterateSteadyStateAllocs(t *testing.T) {
	m := testMatrix(t, 31)
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			mach := machineWithWorkers(t, m, vc.cfg, semiring.PlusTimes{}, 1, nil)
			entries := randomFrontier(m.NumRows, 60, 7)
			var buf []FrontierEntry
			cycle := func() {
				f, err := mach.DistributeFrontier(entries)
				if err != nil {
					t.Fatal(err)
				}
				next, _, err := mach.Iterate(f, IterateOptions{})
				if err != nil {
					t.Fatal(err)
				}
				mach.Recycle(f)
				buf = next.AppendEntries(buf[:0])
				mach.Recycle(next)
			}
			// Warm the pools: first iterations grow emit buckets, receive
			// buffers, frontier shells and the entry buffer to steady-state
			// capacity.
			for i := 0; i < 3; i++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(10, cycle); avg > 0.5 {
				t.Fatalf("steady-state iteration allocates: %.1f allocs/op, want ~0", avg)
			}
		})
	}
}

// TestIterateSteadyStateAllocsTelemetry is the telemetry tentpole's overhead
// contract: attaching a SpatialStats sink keeps the steady-state cycle
// allocation-free. The sink's accumulate methods write into pre-sized arrays
// and the machine passes only concrete slices through the interface, so
// nothing boxes or grows.
func TestIterateSteadyStateAllocsTelemetry(t *testing.T) {
	m := testMatrix(t, 33)
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			mach := machineWithWorkers(t, m, vc.cfg, semiring.PlusTimes{}, 1, nil)
			sp := telemetry.NewSpatialStats(mach.TelemetryShape())
			mach.SetTelemetry(sp)
			entries := randomFrontier(m.NumRows, 60, 7)
			var buf []FrontierEntry
			cycle := func() {
				f, err := mach.DistributeFrontier(entries)
				if err != nil {
					t.Fatal(err)
				}
				next, _, err := mach.Iterate(f, IterateOptions{})
				if err != nil {
					t.Fatal(err)
				}
				mach.Recycle(f)
				buf = next.AppendEntries(buf[:0])
				mach.Recycle(next)
			}
			for i := 0; i < 3; i++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(10, cycle); avg > 0.5 {
				t.Fatalf("steady-state iteration with telemetry allocates: %.1f allocs/op, want ~0", avg)
			}
		})
	}
}

// TestIterateSteadyStateAllocsObsSink is the observability tentpole's
// overhead contract: a registry-backed metrics sink (the bridge gearbox-serve
// leaves attached to every pooled machine) keeps the steady-state cycle
// allocation-free. Every handle is resolved at sink construction, so the
// callbacks fold borrowed slices into locals and finish with plain atomic
// adds — nothing boxes, grows, or touches the registry maps.
func TestIterateSteadyStateAllocsObsSink(t *testing.T) {
	m := testMatrix(t, 33)
	sink := telemetry.NewObsSink(obs.NewRegistry())
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			mach := machineWithWorkers(t, m, vc.cfg, semiring.PlusTimes{}, 1, nil)
			mach.SetTelemetry(sink)
			entries := randomFrontier(m.NumRows, 60, 7)
			var buf []FrontierEntry
			cycle := func() {
				f, err := mach.DistributeFrontier(entries)
				if err != nil {
					t.Fatal(err)
				}
				next, _, err := mach.Iterate(f, IterateOptions{})
				if err != nil {
					t.Fatal(err)
				}
				mach.Recycle(f)
				buf = next.AppendEntries(buf[:0])
				mach.Recycle(next)
			}
			for i := 0; i < 3; i++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(10, cycle); avg > 0.5 {
				t.Fatalf("steady-state iteration with obs sink allocates: %.1f allocs/op, want ~0", avg)
			}
		})
	}
}

// TestIterateSteadyStateAllocsPipelined covers the double-buffered chunked
// path at Workers=1 (the pipeline degenerates to chunk-by-chunk serial
// execution, but the chunk bookkeeping, windowed merges and guided-block
// geometry all run): it must stay as allocation-free as the unchunked serial
// path at every chunk width.
func TestIterateSteadyStateAllocsPipelined(t *testing.T) {
	m := testMatrix(t, 31)
	for _, chunk := range []int{1, 7, 1 << 30} {
		cfg := partition.DefaultConfig()
		mach := machineWithWorkers(t, m, cfg, semiring.PlusTimes{}, 1, nil)
		setChunkSPUs(mach, chunk)
		entries := randomFrontier(m.NumRows, 60, 7)
		var buf []FrontierEntry
		cycle := func() {
			f, err := mach.DistributeFrontier(entries)
			if err != nil {
				t.Fatal(err)
			}
			next, _, err := mach.Iterate(f, IterateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			mach.Recycle(f)
			buf = next.AppendEntries(buf[:0])
			mach.Recycle(next)
		}
		for i := 0; i < 3; i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(10, cycle); avg > 0.5 {
			t.Fatalf("chunk %d: steady-state iteration allocates: %.1f allocs/op, want ~0", chunk, avg)
		}
	}
}

// TestIterateSteadyStateAllocsParallel covers the worker-pool path: the
// fork-join goroutines themselves are the only steady-state cost, so the
// budget allows the handful of allocations Go makes per parallel region but
// still catches per-entry or per-SPU churn (thousands of allocs).
func TestIterateSteadyStateAllocsParallel(t *testing.T) {
	const workers = 4
	m := testMatrix(t, 32)
	mach := machineWithWorkers(t, m, partition.DefaultConfig(), semiring.PlusTimes{}, workers, nil)
	entries := randomFrontier(m.NumRows, 60, 7)
	var buf []FrontierEntry
	cycle := func() {
		f, err := mach.DistributeFrontier(entries)
		if err != nil {
			t.Fatal(err)
		}
		next, _, err := mach.Iterate(f, IterateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mach.Recycle(f)
		buf = next.AppendEntries(buf[:0])
		mach.Recycle(next)
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	// The pipelined hot path runs one compute and one pair-merge region per
	// chunk plus the step 2, 5 and 6 regions, and spawns the merge-stage
	// goroutine once. Each region costs its wg and dispenser escapes plus
	// up to Workers goroutine spawns; Workers+6 per region leaves about 20%
	// headroom over the measured 125 allocs/op (12 SPUs, 6 chunks, 15
	// regions), independent of frontier size.
	nc := (mach.plan.NumSPUs + mach.chunkSPUs - 1) / mach.chunkSPUs
	regions := 2*nc + 3
	budget := float64(regions * (workers + 6))
	if avg := testing.AllocsPerRun(10, cycle); avg > budget {
		t.Fatalf("parallel steady-state iteration allocates: %.1f allocs/op, budget %.0f (%d regions)", avg, budget, regions)
	}
}
