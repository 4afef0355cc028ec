package gearbox

import (
	"reflect"
	"testing"

	"gearbox/internal/semiring"
)

// setChunkSPUs pins the step 3 pipeline's chunk width after New. Widths past
// the plan's SPU count clamp to it: one chunk, no compute/merge overlap.
func setChunkSPUs(mach *Machine, width int) {
	mach.chunkSPUs = min(width, mach.plan.NumSPUs)
}

// TestPipelineChunkEquivalence is the pipelined engine's contract: the chunk
// width is a pure host-scheduling choice. Every Table 4 version must produce
// bit-identical IterStats and frontiers across chunk widths {1, 7, 64,
// whole-frontier} × worker counts {1, 2, 4, GOMAXPROCS}, all compared
// against the serial default-chunk baseline. Width 1 maximizes pipeline
// churn (one SPU per chunk), 7 is odd and unaligned, 64 typically exceeds
// the tiny plan's SPU count and 1<<30 always does (both clamp to a single
// chunk, disabling the overlap).
func TestPipelineChunkEquivalence(t *testing.T) {
	m := testMatrix(t, 25)
	entries := randomFrontier(m.NumRows, 50, 13)
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			serial := machineWithWorkers(t, m, vc.cfg, semiring.PlusTimes{}, 1, nil)
			stS, frS := runChained(t, serial, entries, 3)
			for _, chunk := range []int{1, 7, 64, 1 << 30} {
				for _, workers := range []int{1, 2, 4, 0} {
					mach := machineWithWorkers(t, m, vc.cfg, semiring.PlusTimes{}, workers, nil)
					setChunkSPUs(mach, chunk)
					stP, frP := runChained(t, mach, entries, 3)
					if !reflect.DeepEqual(stS, stP) {
						t.Fatalf("IterStats diverge at chunk=%d workers=%d:\nserial:   %+v\npipelined: %+v", chunk, workers, stS, stP)
					}
					if !reflect.DeepEqual(frS, frP) {
						t.Fatalf("frontiers diverge at chunk=%d workers=%d", chunk, workers)
					}
					if serial.NowNs() != mach.NowNs() {
						t.Fatalf("clocks diverge at chunk=%d workers=%d: %v vs %v", chunk, workers, serial.NowNs(), mach.NowNs())
					}
				}
			}
		})
	}
}

// TestPipelineStats checks the occupancy counters: a multi-worker,
// multi-chunk run engages the pipeline (Runs and Chunks advance, chunk
// arithmetic is consistent) and the double-buffer backpressure holds
// (never more than two chunks computed but unmerged).
func TestPipelineStats(t *testing.T) {
	m := testMatrix(t, 26)
	mach := machineWithWorkers(t, m, versionConfigs()[3].cfg, semiring.PlusTimes{}, 4, nil)
	setChunkSPUs(mach, 1) // one SPU per chunk: maximum pipeline churn
	entries := randomFrontier(m.NumRows, 50, 13)
	runChained(t, mach, entries, 3)

	ps := mach.PipelineStats()
	if ps.Runs == 0 {
		t.Fatal("pipeline never engaged despite Workers=4 and chunk width 1")
	}
	if ps.ChunkSPUs != 1 {
		t.Fatalf("ChunkSPUs = %d, want 1", ps.ChunkSPUs)
	}
	wantChunks := ps.Runs * int64(mach.Plan().NumSPUs)
	if ps.Chunks != wantChunks {
		t.Fatalf("Chunks = %d, want Runs(%d) × NumSPUs(%d) = %d", ps.Chunks, ps.Runs, mach.Plan().NumSPUs, wantChunks)
	}
	if ps.InFlightMax < 1 || ps.InFlightMax > 2 {
		t.Fatalf("InFlightMax = %d, want 1 or 2 (double-buffer backpressure)", ps.InFlightMax)
	}

	// A serial machine must never engage the pipeline.
	serial := machineWithWorkers(t, m, versionConfigs()[3].cfg, semiring.PlusTimes{}, 1, nil)
	runChained(t, serial, entries, 2)
	if ps := serial.PipelineStats(); ps.Runs != 0 {
		t.Fatalf("serial machine reports %d pipeline runs", ps.Runs)
	}
}
