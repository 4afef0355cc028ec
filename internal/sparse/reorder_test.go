package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func squareRandom(rng *rand.Rand, n int32, nnz int) *CSC {
	return CSCFromCOO(randomCOO(rng, n, n, nnz))
}

func TestIdentityPermutation(t *testing.T) {
	p := Identity(5)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c := squareRandom(rand.New(rand.NewSource(3)), 5, 12)
	if !cscEqual(c, ApplyPermutation(c, p)) {
		t.Fatal("identity permutation changed the matrix")
	}
}

// randomPermutation is a seeded uniform relabeling of n vertices.
func randomPermutation(rng *rand.Rand, n int32) *Permutation {
	p := &Permutation{New: make([]int32, n), Old: make([]int32, n)}
	for nw, old := range rng.Perm(int(n)) {
		p.Old[nw], p.New[old] = int32(old), int32(nw)
	}
	return p
}

func TestPermuteUnpermuteVector(t *testing.T) {
	perm := randomPermutation(rand.New(rand.NewSource(11)), 32)
	v := make([]float32, 32)
	for i := range v {
		v[i] = float32(i) * 1.5
	}
	round := UnpermuteVector(PermuteVector(v, perm), perm)
	for i := range v {
		if round[i] != v[i] {
			t.Fatalf("round-trip[%d] = %v, want %v", i, round[i], v[i])
		}
	}
}

// TestQuickReorderPreservesSpMV is the key semantic property: relabeling both
// dimensions by the same permutation must commute with matrix-vector
// multiplication.
func TestQuickReorderPreservesSpMV(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Int31n(24)
		c := squareRandom(rng, n, rng.Intn(int(n)*3))
		perm := randomPermutation(rng, n)
		if perm.Validate() != nil {
			return false
		}
		relabeled := ApplyPermutation(c, perm)
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.Intn(5))
		}
		// y = M x computed on the original labeling.
		y := denseSpMV(c, x)
		// y' = M' x' on the relabeled matrix, then unpermute.
		yp := denseSpMV(relabeled, PermuteVector(x, perm))
		back := UnpermuteVector(yp, perm)
		for i := range y {
			if y[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// denseSpMV is a trivial reference y = M*x used only by tests in this package.
func denseSpMV(c *CSC, x []float32) []float32 {
	y := make([]float32, c.NumRows)
	for col := int32(0); col < c.NumCols; col++ {
		rows, vals := c.Col(col)
		for i, r := range rows.All() {
			y[r] += vals[i] * x[col]
		}
	}
	return y
}

func TestQuickPermutationBijective(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Int31n(64)
		c := squareRandom(rng, n, rng.Intn(int(n)*2))
		perm := randomPermutation(rng, n)
		seen := make([]bool, n)
		for _, nw := range perm.New {
			if seen[nw] {
				return false
			}
			seen[nw] = true
		}
		if perm.Validate() != nil {
			return false
		}
		// Relabeling moves every column whole: its length follows it.
		relabeled := ApplyPermutation(c, perm)
		for col := int32(0); col < n; col++ {
			if relabeled.ColLen(perm.New[col]) != c.ColLen(col) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
