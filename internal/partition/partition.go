// Package partition implements the data-placement schemes of the paper:
// naive column-oriented partitioning (GearboxV1), Hybrid partitioning with
// and without long-entry replication (GearboxV2/V3, §3.2), the impractical
// all-in-logic-layer variant (HypoGearboxV2, Table 4), and the
// consecutive-column placement policies of Fig. 16b.
//
// A Plan relabels the matrix so every compute SPU owns one *contiguous*
// range of vertex indexes — that is what makes the FirstLocal/LastLocal
// comparator latches of §4 sufficient to classify accumulations — while the
// placement policy controls which SPU consecutive original columns land on.
package partition

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"gearbox/internal/mem"
	"gearbox/internal/par"
	"gearbox/internal/sparse"
)

// Scheme selects the partitioning strategy (Table 4).
type Scheme int

const (
	// ColumnOriented assigns whole columns to SPUs with no long region
	// (GearboxV1).
	ColumnOriented Scheme = iota
	// Hybrid stripes long columns across all SPUs and keeps short columns
	// whole (GearboxV2 with Replicate=false, GearboxV3 with Replicate=true).
	Hybrid
	// HypoLogicLayer keeps the matrix partitioned like Hybrid but places the
	// entire input and output vectors in the logic layer (HypoGearboxV2,
	// impractical: evaluated for Fig. 13 only).
	HypoLogicLayer
)

func (s Scheme) String() string {
	switch s {
	case ColumnOriented:
		return "column-oriented"
	case Hybrid:
		return "hybrid"
	case HypoLogicLayer:
		return "hypo-logic-layer"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Placement controls where consecutive original columns land (Fig. 16b).
type Placement int

const (
	// Shuffled is the paper's default pre-processing: randomize the column
	// order (§6). Statistically equivalent to Distributed plus load noise.
	Shuffled Placement = iota
	// SameSubarray stores consecutive columns in one subarray pair.
	SameSubarray
	// SameBank spreads consecutive columns across the SPUs of one bank.
	SameBank
	// SameVault spreads consecutive columns across the SPUs of one vault.
	SameVault
	// Distributed round-robins consecutive columns across every SPU.
	Distributed
)

func (p Placement) String() string {
	switch p {
	case Shuffled:
		return "shuffled"
	case SameSubarray:
		return "same-subarray"
	case SameBank:
		return "same-bank"
	case SameVault:
		return "same-vault"
	case Distributed:
		return "distributed"
	}
	return fmt.Sprintf("Placement(%d)", int(p))
}

// Balance selects how short columns spread across SPUs.
type Balance int

const (
	// VertexBalanced gives every SPU the same number of columns (the
	// paper's randomize-and-split pre-processing, §6).
	VertexBalanced Balance = iota
	// NNZBalanced packs columns onto SPUs by longest-processing-time-first
	// so per-SPU non-zero counts equalize — a reproduction-added refinement
	// that counters the hot-short-column imbalance EXPERIMENTS.md measures
	// on scaled datasets. Applies to the Shuffled and Distributed
	// placements; structured placements keep their layout.
	NNZBalanced
)

func (b Balance) String() string {
	switch b {
	case VertexBalanced:
		return "vertex-balanced"
	case NNZBalanced:
		return "nnz-balanced"
	}
	return fmt.Sprintf("Balance(%d)", int(b))
}

// Config parameterizes a partitioning run.
type Config struct {
	Scheme    Scheme
	Placement Placement
	// LongFrac is the fraction of columns/rows labeled long (paper default
	// 0.01% = 0.0001). Ignored by ColumnOriented.
	LongFrac float64
	// Replicate enables the V3 optimization: long outputs replicated per
	// SPU, reduced in the logic layer (Fig. 7b).
	Replicate bool
	// Balance selects vertex-count or non-zero-count balancing.
	Balance Balance
	Seed    int64
	// Workers sizes the worker pool the build runs on (0 selects GOMAXPROCS,
	// 1 forces the serial path). The plan is bit-identical at every worker
	// count: the parallel pieces — permutation apply, CSC rebuild, ownership
	// fill, and long-fragment sharding — are all pure functions of fixed
	// index blocks.
	Workers int
}

// PaperLongFrac is the paper's default long threshold: the top 0.01% of
// columns/rows (§3.2), appropriate at the paper's 1M-24M-vertex scale.
const PaperLongFrac = 0.0001

// ScaledLongFrac is the equivalent threshold for this repo's ~100x-smaller
// synthetic stand-ins: it captures a comparable share of non-zeros in the
// long region (DESIGN.md §2 records the scaling).
const ScaledLongFrac = 0.005

// DefaultConfig is the GearboxV3 configuration at the scaled threshold.
func DefaultConfig() Config {
	return Config{Scheme: Hybrid, Placement: Shuffled, LongFrac: ScaledLongFrac, Replicate: true, Seed: 1}
}

// Range is one SPU's contiguous owned vertex span [First, Last], inclusive.
// Empty ranges have Last < First.
type Range struct{ First, Last int32 }

// Len reports the number of owned vertices.
func (r Range) Len() int32 {
	if r.Last < r.First {
		return 0
	}
	return r.Last - r.First + 1
}

// Contains reports whether v falls in the range.
func (r Range) Contains(v int32) bool { return v >= r.First && v <= r.Last }

// Plan is the result of partitioning: the relabeled matrix, the permutation
// that produced it, per-SPU ownership ranges, and the long-column fragments.
type Plan struct {
	Cfg Config
	Geo mem.Geometry

	Matrix *sparse.CSC // relabeled
	Perm   *sparse.Permutation
	// LastLong bounds the long region in the new labels (-1: none).
	LastLong int32
	NumSPUs  int
	// Ranges[k] is compute SPU k's owned span over short vertices.
	Ranges []Range
	// OwnerOf[v] is the flat compute-SPU index owning new label v, or -1
	// for long-region labels (owned by the logic layer).
	OwnerOf []int32
	// The long-column fragments as one flat per-SPU CSR. SPU k's present
	// long columns are LongCol[LongSPU[k]:LongSPU[k+1]], strictly
	// ascending; the entries of the j-th (SPU, column) pair are
	// LongRow/LongVal[LongOff[j]:LongOff[j+1]]. A pair's segment holds the
	// column's entries whose rows SPU k owns (the fragment, so the
	// accumulation is local, Fig. 2b), then the entries whose rows are
	// themselves long and were round-robined onto SPU k for balance (the
	// spill), each part in column position order. Every segment is
	// non-empty.
	LongSPU []int32 // len NumSPUs+1, offsets into LongCol
	LongCol []int32
	LongOff []int32 // len(LongCol)+1, offsets into LongRow/LongVal
	LongRow []int32
	LongVal []float32
}

// SPUIDOf maps a flat compute-SPU index to its stack coordinates. Flat
// indexes enumerate layer-major, then bank, then SPU position; position
// skips the dispatcher slot (the last pair, §4.3).
func (p *Plan) SPUIDOf(flat int) mem.SPUID {
	per := p.Geo.ComputeSPUsPerBank()
	bankFlat := flat / per
	return mem.SPUID{
		Layer: bankFlat / p.Geo.BanksPerLayer,
		Bank:  bankFlat % p.Geo.BanksPerLayer,
		SPU:   flat % per,
	}
}

// DispatcherOf returns the Dispatcher SPU of the bank hosting flat SPU k.
func (p *Plan) DispatcherOf(flat int) mem.SPUID {
	id := p.SPUIDOf(flat)
	id.SPU = p.Geo.SPUsPerBank() - 1
	return id
}

// Build partitions the matrix for the given geometry.
func Build(m *sparse.CSC, geo mem.Geometry, cfg Config) (*Plan, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if m.NumRows != m.NumCols {
		return nil, fmt.Errorf("partition: requires a square matrix, got %dx%d", m.NumRows, m.NumCols)
	}
	if cfg.LongFrac < 0 || cfg.LongFrac > 1 {
		return nil, fmt.Errorf("partition: long fraction %v out of [0,1]", cfg.LongFrac)
	}
	longFrac := cfg.LongFrac
	if cfg.Scheme == ColumnOriented {
		longFrac = 0
	}

	numSPUs := geo.TotalComputeSPUs()
	n := m.NumRows

	perm, lastLong, counts, err := buildPermutation(m, geo, cfg, longFrac)
	if err != nil {
		return nil, err
	}
	relabeled := sparse.ApplyPermutationWorkers(m, perm, cfg.Workers)

	p := &Plan{
		Cfg:      cfg,
		Geo:      geo,
		Matrix:   relabeled,
		Perm:     perm,
		LastLong: lastLong,
		NumSPUs:  numSPUs,
		Ranges:   make([]Range, numSPUs),
		OwnerOf:  make([]int32, n),
	}

	// Contiguous short ranges: SPU k's range size is exactly the number of
	// columns the placement assigned to it (equal counts for
	// VertexBalanced, length-weighted counts for NNZBalanced).
	next := int64(lastLong + 1)
	for k := 0; k < numSPUs; k++ {
		size := int64(counts[k])
		//gearbox:narrow-ok next+size never exceeds NumRows, which is int32 by COO construction
		p.Ranges[k] = Range{First: int32(next), Last: int32(next + size - 1)}
		next += size
	}
	pool := par.New(cfg.Workers)
	pool.ForEachBlock(int(lastLong+1), func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			p.OwnerOf[v] = -1
		}
	})
	pool.ForEach(numSPUs, func(_, k int) {
		r := p.Ranges[k]
		for v := r.First; v <= r.Last; v++ {
			p.OwnerOf[v] = int32(k) //gearbox:narrow-ok k is an SPU ordinal, bounded by cfg.NumSPUs validation
		}
	})

	if err := p.buildLongFragments(pool); err != nil {
		return nil, err
	}
	return p, nil
}

// buildPermutation produces the vertex relabeling: long vertices first, then
// short vertices ordered so each SPU's contiguous new-label range receives
// the original columns its placement policy prescribes. The returned counts
// are the per-SPU assignment sizes the ranges must match.
func buildPermutation(m *sparse.CSC, geo mem.Geometry, cfg Config, longFrac float64) (*sparse.Permutation, int32, []int, error) {
	n := m.NumRows
	colLens := sparse.ColumnLengths(m)
	rowLens := sparse.RowLengthsWorkers(m, cfg.Workers)
	isLong := make([]bool, n)
	for _, v := range sparse.TopFraction(colLens, longFrac) {
		isLong[v] = true
	}
	for _, v := range sparse.TopFraction(rowLens, longFrac) {
		isLong[v] = true
	}

	var longSet, shortSet []int32
	for v := int32(0); v < n; v++ {
		if isLong[v] {
			longSet = append(longSet, v)
		} else {
			shortSet = append(shortSet, v)
		}
	}

	numSPUs := geo.TotalComputeSPUs()
	perSPU := make([][]int32, numSPUs)
	nnzBalance := cfg.Balance == NNZBalanced &&
		(cfg.Placement == Shuffled || cfg.Placement == Distributed)
	switch {
	case nnzBalance:
		// A vertex loads its SPU on both sides: column length drives Step 3
		// (outgoing accumulations) and row length drives Step 5 (incoming
		// remote pairs land at the row's owner). Balance their sum.
		weights := make([]int, n)
		for v := range weights {
			weights[v] = colLens[v] + rowLens[v] + 1 // +1 keeps Step 2/6 per-vertex work counted
		}
		perSPU = packByLength(shortSet, weights, numSPUs)
	case cfg.Placement == Shuffled:
		rng := rand.New(rand.NewSource(cfg.Seed))
		shuffled := append([]int32(nil), shortSet...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for i, v := range shuffled {
			perSPU[i%numSPUs] = append(perSPU[i%numSPUs], v)
		}
	default:
		for i, v := range shortSet {
			k := spuForColumn(i, len(shortSet), geo, cfg)
			perSPU[k] = append(perSPU[k], v)
		}
	}

	if !nnzBalance {
		// Vertex balancing: per-SPU assignment sizes must match the even
		// split (base or base+1 per SPU); move overflow to underfull SPUs.
		rebalance(perSPU, len(shortSet))
	}

	perm := &sparse.Permutation{New: make([]int32, n), Old: make([]int32, n)}
	counts := make([]int, numSPUs)
	next := int32(0)
	for _, v := range longSet {
		perm.New[v], perm.Old[next] = next, v
		next++
	}
	for k := 0; k < numSPUs; k++ {
		counts[k] = len(perSPU[k])
		for _, v := range perSPU[k] {
			perm.New[v], perm.Old[next] = next, v
			next++
		}
	}
	if err := perm.Validate(); err != nil {
		return nil, 0, nil, fmt.Errorf("partition: %w", err)
	}
	//gearbox:narrow-ok longSet holds distinct column ids, so its size is bounded by NumCols, an int32
	return perm, int32(len(longSet)) - 1, counts, nil
}

// packByLength assigns columns to SPUs longest-first onto the least-loaded
// SPU (LPT list scheduling), equalizing per-SPU non-zero totals.
func packByLength(shortSet []int32, colLens []int, numSPUs int) [][]int32 {
	order := append([]int32(nil), shortSet...)
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(colLens[b], colLens[a]); c != 0 {
			return c // longest first
		}
		return cmp.Compare(a, b)
	})
	// A heap keyed by (load, count) keeps assignment O(n log S). The heap
	// is value-based and inlined — the loop only ever updates the root, so
	// init plus a sift-down per assignment is the whole interface, and the
	// container/heap `any` boxing (one allocation per slot plus interface
	// dispatch per comparison) buys nothing here.
	h := make([]slot, numSPUs)
	for k := 0; k < numSPUs; k++ {
		h[k] = slot{spu: k}
	}
	for i := numSPUs/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	perSPU := make([][]int32, numSPUs)
	for _, v := range order {
		s := &h[0]
		perSPU[s.spu] = append(perSPU[s.spu], v)
		s.load += int64(colLens[v])
		s.count++
		siftDown(h, 0)
	}
	return perSPU
}

// slot is one LPT least-loaded queue entry, ordered by (load, count, spu).
type slot struct {
	load  int64
	count int
	spu   int
}

func slotLess(a, b slot) bool {
	if a.load != b.load {
		return a.load < b.load
	}
	if a.count != b.count {
		return a.count < b.count
	}
	return a.spu < b.spu
}

// siftDown restores the min-heap property below index i. Ties prefer the
// left child, matching container/heap's down() so the replacement preserves
// the exact assignment order of the previous slotHeap implementation.
func siftDown(h []slot, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && slotLess(h[r], h[c]) {
			c = r
		}
		if !slotLess(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// spuForColumn maps the i-th short column (in original order) to a compute
// SPU per the placement policy.
func spuForColumn(i, total int, geo mem.Geometry, cfg Config) int {
	numSPUs := geo.TotalComputeSPUs()
	per := geo.ComputeSPUsPerBank()
	switch cfg.Placement {
	case SameSubarray:
		// Consecutive block of columns per SPU.
		chunk := (total + numSPUs - 1) / numSPUs
		return min(i/chunk, numSPUs-1)
	case SameBank:
		// Consecutive blocks per bank; round-robin among the bank's SPUs.
		banks := numSPUs / per
		chunk := (total + banks - 1) / banks
		bank := min(i/chunk, banks-1)
		return bank*per + (i%chunk)%per
	case SameVault:
		// Consecutive blocks per vault; round-robin among the vault's SPUs
		// (all layers, the banks the vault owns).
		spusPerVault := numSPUs / geo.Vaults
		chunk := (total + geo.Vaults - 1) / geo.Vaults
		vault := min(i/chunk, geo.Vaults-1)
		return vault*spusPerVault + (i%chunk)%spusPerVault
	default: // Distributed (and Shuffled handled by caller)
		return i % numSPUs
	}
}

// rebalance evens out per-SPU assignment counts to match the contiguous
// range split (base or base+1 per SPU) while preserving placement intent as
// much as possible: overflowing SPUs push their tail columns to underfull
// ones.
func rebalance(perSPU [][]int32, total int) {
	numSPUs := len(perSPU)
	base := total / numSPUs
	extra := total % numSPUs
	want := func(k int) int {
		if k < extra {
			return base + 1
		}
		return base
	}
	var pool []int32
	for k := range perSPU {
		if w := want(k); len(perSPU[k]) > w {
			pool = append(pool, perSPU[k][w:]...)
			perSPU[k] = perSPU[k][:w]
		}
	}
	for k := range perSPU {
		if w := want(k); len(perSPU[k]) < w {
			take := w - len(perSPU[k])
			perSPU[k] = append(perSPU[k], pool[:take]...)
			pool = pool[take:]
		}
	}
}

// buildLongFragments distributes each long column's entries: entries whose
// row is short go to the row's owner (so the accumulation is local, Fig. 2b);
// entries whose row is itself long are round-robined across SPUs and handled
// by the LongEntryTreat path. It lays them out as the flat per-SPU CSR the
// Plan documents.
//
// The build is sharded by destination SPU: every worker scans the whole long
// region but keeps only the entries its SPU block owns, and SPU k's pairs and
// entries are contiguous, so each block writes a disjoint window of the flat
// arrays. A count pass sizes every SPU's pairs and entries; after a serial
// prefix sum the fill pass writes arrays of exact size. The round-robin
// target of a spill entry is its global spill ordinal mod NumSPUs; the
// ordinal is the column's spill-count prefix plus the entry's within-column
// spill rank — both worker-independent — so the sharded build reproduces a
// serial global counter bit for bit.
func (p *Plan) buildLongFragments(pool *par.Pool) error {
	nLong := int(p.LastLong + 1)
	// Per-column spill counts, then prefix: spillBase[c] is the global
	// round-robin ordinal of column c's first long-row entry.
	spillBase := make([]int, nLong+1)
	pool.ForEach(nLong, func(_, ci int) {
		rows, _ := p.Matrix.Col(int32(ci)) //gearbox:narrow-ok ci < nLong <= NumCols, an int32
		n := 0
		if wide := rows.Wide(); wide != nil {
			for _, r := range wide {
				if p.OwnerOf[r] < 0 {
					n++
				}
			}
		} else {
			for _, r := range rows.Narrow() {
				if p.OwnerOf[r] < 0 {
					n++
				}
			}
		}
		spillBase[ci+1] = n
	})
	for c := 0; c < nLong; c++ {
		spillBase[c+1] += spillBase[c]
	}

	// route walks the long region in column order and calls visit for every
	// entry bound for an SPU k in [klo, khi): within a column, first the
	// entries whose rows k owns, then the spill entries round-robined onto
	// k, each in position order — the order a segment stores them in.
	route := func(klo, khi int, visit func(k int, c, r int32, v float32)) {
		var spill []int32 // positions of the column's long-row entries
		//gearbox:narrow-ok nLong = LastLong+1 comes from an int32 column id
		for c := int32(0); c < int32(nLong); c++ {
			rows, vals := p.Matrix.Col(c)
			spill = spill[:0]
			for i, r := range rows.All() {
				if k := int(p.OwnerOf[r]); k < 0 {
					spill = append(spill, int32(i))
				} else if k >= klo && k < khi {
					visit(k, c, r, vals[i])
				}
			}
			for s, i := range spill {
				if k := (spillBase[c] + s) % p.NumSPUs; k >= klo && k < khi {
					visit(k, c, rows.At(int(i)), vals[i])
				}
			}
		}
	}

	// Count pass: SPU k's (SPU, column) pairs and entries land at k+1 of
	// pairBase and entBase, which the prefix sum below turns into offsets.
	pairBase := make([]int, p.NumSPUs+1)
	entBase := make([]int, p.NumSPUs+1)
	pool.ForEachBlock(p.NumSPUs, func(_, klo, khi int) {
		pairs := make([]int, khi-klo)
		ents := make([]int, khi-klo)
		last := make([]int32, khi-klo)
		for j := range last {
			last[j] = -1
		}
		route(klo, khi, func(k int, c, _ int32, _ float32) {
			j := k - klo
			ents[j]++
			if last[j] != c {
				last[j] = c
				pairs[j]++
			}
		})
		for k := klo; k < khi; k++ {
			pairBase[k+1], entBase[k+1] = pairs[k-klo], ents[k-klo]
		}
	})

	// Offsets. Segment entries are addressed by int32, so the long region
	// must hold fewer than 2^31 entries (pairs never outnumber entries).
	for k := 0; k < p.NumSPUs; k++ {
		pairBase[k+1] += pairBase[k]
		entBase[k+1] += entBase[k]
	}
	total := entBase[p.NumSPUs]
	if total > math.MaxInt32 {
		return fmt.Errorf("partition: long columns hold %d entries, more than the fragment layout's int32 offsets address", total)
	}
	p.LongSPU = make([]int32, p.NumSPUs+1)
	for k, b := range pairBase {
		p.LongSPU[k] = int32(b)
	}
	nPairs := pairBase[p.NumSPUs]
	p.LongCol = make([]int32, nPairs)
	p.LongOff = make([]int32, nPairs+1)
	p.LongOff[nPairs] = int32(total)
	p.LongRow = make([]int32, total)
	p.LongVal = make([]float32, total)

	// Fill pass: block [klo, khi) owns pairs [pairBase[klo], pairBase[khi])
	// and entries [entBase[klo], entBase[khi]).
	pool.ForEachBlock(p.NumSPUs, func(_, klo, khi int) {
		cols := p.LongCol[pairBase[klo]:pairBase[khi]]
		offs := p.LongOff[pairBase[klo]:pairBase[khi]]
		rows := p.LongRow[entBase[klo]:entBase[khi]]
		vals := p.LongVal[entBase[klo]:entBase[khi]]
		base := int32(entBase[klo])
		pc := make([]int32, khi-klo) // next pair slot, relative to cols
		ec := make([]int32, khi-klo) // next entry slot, relative to rows
		last := make([]int32, khi-klo)
		for k := klo; k < khi; k++ {
			pc[k-klo] = int32(pairBase[k] - pairBase[klo]) //gearbox:narrow-ok pairs never outnumber entries, whose total is checked against MaxInt32 above
			ec[k-klo] = int32(entBase[k] - entBase[klo])
			last[k-klo] = -1
		}
		route(klo, khi, func(k int, c, r int32, v float32) {
			j := k - klo
			if last[j] != c {
				last[j] = c
				cols[pc[j]] = c
				offs[pc[j]] = base + ec[j]
				pc[j]++
			}
			rows[ec[j]] = r
			vals[ec[j]] = v
			ec[j]++
		})
	})
	return nil
}

// Validate checks the structural invariants the machine relies on; property
// tests call it after every build.
func (p *Plan) Validate() error {
	n := p.Matrix.NumRows
	//gearbox:narrow-ok equality check against an int32 dimension; a wrapped length would simply fail the comparison
	if int32(len(p.OwnerOf)) != n {
		return fmt.Errorf("partition: OwnerOf length %d, want %d", len(p.OwnerOf), n)
	}
	// Ranges tile [LastLong+1, n) exactly.
	next := p.LastLong + 1
	for k, r := range p.Ranges {
		if r.Len() == 0 {
			continue
		}
		if r.First != next {
			return fmt.Errorf("partition: SPU %d range starts at %d, want %d", k, r.First, next)
		}
		next = r.Last + 1
	}
	if next != n {
		return fmt.Errorf("partition: ranges end at %d, want %d", next, n)
	}
	for v := int32(0); v < n; v++ {
		owner := p.OwnerOf[v]
		if v <= p.LastLong {
			if owner != -1 {
				return fmt.Errorf("partition: long label %d has owner %d", v, owner)
			}
			continue
		}
		if owner < 0 || int(owner) >= p.NumSPUs || !p.Ranges[owner].Contains(v) {
			return fmt.Errorf("partition: label %d owner %d inconsistent with ranges", v, owner)
		}
	}
	// The long-fragment CSR: monotone offsets, non-empty segments, each
	// SPU's columns strictly ascending inside the long region, owned rows
	// before spilled long rows. The offsets are checked whole first, so the
	// walk below never indexes out of range on a corrupt plan.
	if len(p.LongSPU) != p.NumSPUs+1 || p.LongSPU[0] != 0 || int(p.LongSPU[p.NumSPUs]) != len(p.LongCol) {
		return fmt.Errorf("partition: LongSPU does not span LongCol")
	}
	if len(p.LongOff) != len(p.LongCol)+1 || p.LongOff[0] != 0 ||
		int(p.LongOff[len(p.LongCol)]) != len(p.LongRow) || len(p.LongVal) != len(p.LongRow) {
		return fmt.Errorf("partition: LongOff does not span LongRow/LongVal")
	}
	for k := 0; k < p.NumSPUs; k++ {
		if p.LongSPU[k+1] < p.LongSPU[k] {
			return fmt.Errorf("partition: LongSPU decreases at SPU %d", k)
		}
	}
	for j := range p.LongCol {
		if p.LongOff[j+1] <= p.LongOff[j] {
			return fmt.Errorf("partition: long pair %d has an empty segment", j)
		}
	}
	for k := 0; k < p.NumSPUs; k++ {
		lo, hi := p.LongSPU[k], p.LongSPU[k+1]
		for j := lo; j < hi; j++ {
			c := p.LongCol[j]
			if c < 0 || c > p.LastLong {
				return fmt.Errorf("partition: SPU %d holds a fragment of non-long column %d", k, c)
			}
			if j > lo && c <= p.LongCol[j-1] {
				return fmt.Errorf("partition: SPU %d columns not strictly ascending at %d", k, c)
			}
			spilled := false
			for _, r := range p.LongRow[p.LongOff[j]:p.LongOff[j+1]] {
				if r < 0 || r >= n {
					return fmt.Errorf("partition: SPU %d column %d holds row %d out of range", k, c, r)
				}
				switch owner := p.OwnerOf[r]; {
				case owner == -1:
					spilled = true
				case spilled:
					return fmt.Errorf("partition: SPU %d column %d holds owned row %d after its spill", k, c, r)
				case owner != int32(k):
					return fmt.Errorf("partition: SPU %d holds fragment row %d owned by %d", k, r, owner)
				}
			}
		}
	}
	fragCount := int64(len(p.LongRow))
	var wantFrag int64
	for c := int32(0); c <= p.LastLong; c++ {
		wantFrag += int64(p.Matrix.ColLen(c))
	}
	if fragCount != wantFrag {
		return fmt.Errorf("partition: fragments hold %d entries, long columns hold %d", fragCount, wantFrag)
	}
	return nil
}
