package partition

import (
	"runtime"
	"slices"
	"testing"
)

// planEqual deep-compares everything a Plan derives from the matrix: the
// relabeled arrays, permutation, ranges, ownership, and the five arrays of
// the long-fragment CSR.
func planEqual(t *testing.T, a, b *Plan) {
	t.Helper()
	if !slices.Equal(a.Matrix.Offsets, b.Matrix.Offsets) ||
		!slices.Equal(a.Matrix.IndexesInt32(), b.Matrix.IndexesInt32()) ||
		!slices.Equal(a.Matrix.Values, b.Matrix.Values) {
		t.Fatal("relabeled matrices differ")
	}
	if !slices.Equal(a.Perm.New, b.Perm.New) || !slices.Equal(a.Perm.Old, b.Perm.Old) {
		t.Fatal("permutations differ")
	}
	if a.LastLong != b.LastLong || !slices.Equal(a.Ranges, b.Ranges) || !slices.Equal(a.OwnerOf, b.OwnerOf) {
		t.Fatal("ranges or ownership differ")
	}
	if !slices.Equal(a.LongSPU, b.LongSPU) || !slices.Equal(a.LongCol, b.LongCol) ||
		!slices.Equal(a.LongOff, b.LongOff) || !slices.Equal(a.LongRow, b.LongRow) ||
		!slices.Equal(a.LongVal, b.LongVal) {
		t.Fatal("long fragments differ")
	}
}

func TestBuildWorkersEquivalent(t *testing.T) {
	m := powerLawMatrix(t, 10, 31)
	for _, cfg := range []Config{
		DefaultConfig(),
		{Scheme: Hybrid, Placement: Distributed, LongFrac: 0.02, Balance: NNZBalanced, Seed: 5},
		{Scheme: ColumnOriented, Placement: Shuffled, Seed: 7},
	} {
		serial := cfg
		serial.Workers = 1
		want, err := Build(m, smallGeo(), serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
			par := cfg
			par.Workers = w
			got, err := Build(m, smallGeo(), par)
			if err != nil {
				t.Fatal(err)
			}
			planEqual(t, got, want)
		}
	}
}

// TestBuildMatchesPreRefactorRoundRobin pins the spill round-robin contract:
// the destination of the i-th long-row entry (scanning long columns in
// order, rows ascending within a column) is i mod NumSPUs — the behavior of
// the old serial global counter that the sharded rebuild must reproduce.
func TestBuildMatchesPreRefactorRoundRobin(t *testing.T) {
	m := powerLawMatrix(t, 9, 37)
	cfg := DefaultConfig()
	cfg.LongFrac = 0.05 // enough long vertices that long rows hit long columns
	p, err := Build(m, smallGeo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rr := 0
	for c := int32(0); c <= p.LastLong; c++ {
		rows, vals := p.Matrix.Col(c)
		for i, r := range rows.All() {
			if p.OwnerOf[r] >= 0 {
				continue
			}
			k := rr % p.NumSPUs
			rr++
			found := false
			cols := p.LongCol[p.LongSPU[k]:p.LongSPU[k+1]]
			if j, ok := slices.BinarySearch(cols, c); ok {
				j += int(p.LongSPU[k])
				for e := p.LongOff[j]; e < p.LongOff[j+1]; e++ {
					if p.LongRow[e] == r && p.LongVal[e] == vals[i] {
						found = true
						break
					}
				}
			}
			if !found {
				t.Fatalf("spill entry (%d,%d) not at round-robin SPU %d", r, c, k)
			}
		}
	}
	if rr == 0 {
		t.Skip("matrix produced no long-row spill entries")
	}
}
