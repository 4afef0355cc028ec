package gearbox

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gearbox/internal/partition"
	"gearbox/internal/semiring"
)

// replicaSeed marks slots dirty in one SPU's replica of the long region.
type replicaSeed struct {
	spu   int
	slots []int32
}

// reduceMachine builds a V3 machine on smallGeo (4 banks of 3 compute SPUs)
// with at least eight long slots.
func reduceMachine(t *testing.T) *Machine {
	t.Helper()
	pcfg := partition.Config{Scheme: partition.Hybrid, Placement: partition.Shuffled, LongFrac: 0.05, Replicate: true, Seed: 1}
	mach := machineWithWorkers(t, testMatrix(t, 41), pcfg, semiring.PlusTimes{}, 1, nil)
	if mach.plan.LastLong < 7 {
		t.Fatalf("LastLong = %d, want at least 8 long slots", mach.plan.LastLong)
	}
	return mach
}

// checkReduction seeds the replicas, runs the reduction and compares the
// per-bank distinct-slot counts, the logic accumulator and the sorted logic
// dirty list against a map-based reference. Values are small integers, so
// the reference sums are exact in any order.
func checkReduction(t *testing.T, mach *Machine, seeds []replicaSeed) {
	t.Helper()
	acc := map[int32]float32{}
	bankSlots := map[int32]map[int32]bool{}
	for i, s := range seeds {
		rep := mach.replica(s.spu)
		bf := mach.bankOf[s.spu]
		if bankSlots[bf] == nil {
			bankSlots[bf] = map[int32]bool{}
		}
		for j, r := range s.slots {
			v := float32(1 + (i+j)%5)
			rep[r] = v
			mach.dirtyLong[s.spu] = append(mach.dirtyLong[s.spu], r)
			acc[r] += v
			bankSlots[bf][r] = true
		}
	}

	var ev Events
	mach.reduceReplicas(&ev)

	for bf, n := range mach.scr.bankSlotCount {
		if want := int64(len(bankSlots[int32(bf)])); n != want {
			t.Errorf("bankSlotCount[%d] = %d, want %d", bf, n, want)
		}
	}
	for r, v := range mach.logicAcc {
		if want := acc[int32(r)]; v != want {
			t.Errorf("logicAcc[%d] = %v, want %v", r, v, want)
		}
	}
	var wantDirty []int32
	for r := range acc {
		wantDirty = append(wantDirty, r)
	}
	slices.Sort(wantDirty)
	gotDirty := slices.Clone(mach.logicDirty)
	slices.Sort(gotDirty)
	if !slices.Equal(gotDirty, wantDirty) {
		t.Errorf("logicDirty = %v, want %v", gotDirty, wantDirty)
	}
	for _, s := range seeds {
		for _, r := range s.slots {
			if v := mach.replicas[s.spu][r]; v != mach.clean {
				t.Errorf("replica %d slot %d = %v after reduction, want clean", s.spu, r, v)
			}
		}
	}

	// Return the long region to clean, as step 6's emission does.
	for r := range mach.logicAcc {
		mach.logicAcc[r] = mach.clean
	}
	mach.logicDirty = mach.logicDirty[:0]
	for k := range mach.dirtyLong {
		mach.dirtyLong[k] = mach.dirtyLong[k][:0]
	}
}

// randomSeeds draws dirty slots from [0, 8) for a random subset of SPUs, so
// slots repeat within a bank and are shared across banks.
func randomSeeds(rng *rand.Rand, nSPU int) []replicaSeed {
	var seeds []replicaSeed
	for k := 0; k < nSPU; k++ {
		if rng.Intn(4) == 0 {
			continue
		}
		perm := rng.Perm(8)[:1+rng.Intn(5)]
		slots := make([]int32, len(perm))
		for i, r := range perm {
			slots[i] = int32(r)
		}
		seeds = append(seeds, replicaSeed{spu: k, slots: slots})
	}
	return seeds
}

// bankSeeds dirties slots in all four banks of smallGeo, whose flat banks
// are SPUs {0,1,2}, {3,4,5}, {6,7,8} and {9,10,11}.
func bankSeeds() []replicaSeed {
	return []replicaSeed{
		{0, []int32{0, 1, 2}},
		{1, []int32{2, 1, 3}}, // 1 and 2 repeat within bank 0
		{2, []int32{5}},
		{3, []int32{0, 3}}, // 0 and 3 shared with bank 0
		{4, []int32{0, 4}}, // 0 repeats within bank 1
		{6, []int32{1, 4}},
		{9, []int32{2}},
		{11, []int32{2, 0, 7}}, // 2 repeats within bank 3
	}
}

// TestReduceReplicasDistinctSlots pins the V3 reduction's per-bank
// distinct-slot counts: a slot dirty in two SPUs of one bank counts once for
// that bank, and a slot dirty in several banks counts once for each.
func TestReduceReplicasDistinctSlots(t *testing.T) {
	mach := reduceMachine(t)
	for it := 0; it < 3; it++ {
		checkReduction(t, mach, bankSeeds())
	}
	rng := rand.New(rand.NewSource(5))
	for it := 0; it < 5; it++ {
		checkReduction(t, mach, randomSeeds(rng, mach.plan.NumSPUs))
	}
}

// TestReduceReplicasEpochWrap runs the reduction across the int32 epoch
// wrap, from a start epoch that wraps at the first and at the second bank
// visited. A first iteration leaves every mark at epoch 1, the first epoch
// after the restart, so a wrap that restarted the epochs without clearing
// the marks would skip those slots.
func TestReduceReplicasEpochWrap(t *testing.T) {
	for _, start := range []int32{math.MaxInt32, math.MaxInt32 - 1} {
		mach := reduceMachine(t)
		checkReduction(t, mach, []replicaSeed{{0, []int32{0, 1, 2, 3, 4, 5, 6, 7}}})
		mach.scr.epoch = start
		checkReduction(t, mach, bankSeeds())
		rng := rand.New(rand.NewSource(9))
		for it := 0; it < 4; it++ {
			checkReduction(t, mach, randomSeeds(rng, mach.plan.NumSPUs))
		}
		if mach.scr.epoch <= 0 || mach.scr.epoch > 64 {
			t.Fatalf("start %d: epoch = %d after the wrap, want a small restarted epoch", start, mach.scr.epoch)
		}
	}
}
