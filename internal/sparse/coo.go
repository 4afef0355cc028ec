// Package sparse implements the sparse-matrix formats used throughout the
// Gearbox reproduction: coordinate lists (COO) and compressed sparse columns
// (CSC, Fig. 4 of the paper). It also provides the column/row statistics
// (Fig. 5), the top-fraction selection of long columns/rows (§3.2), and the
// symmetric vertex permutations Hybrid partitioning applies.
//
// Values are float32 to match the 4-byte memory words of the simulated stack
// (256-byte rows hold 64 words; row address = index>>6, column = index&63).
package sparse

import (
	"fmt"
	"slices"
)

// Entry is one non-zero of a matrix in coordinate form.
type Entry struct {
	Row, Col int32
	Val      float32
}

// COO is an unordered coordinate-list matrix. It is the interchange format
// produced by the generators and consumed by the compressed builders.
type COO struct {
	NumRows, NumCols int32
	Entries          []Entry
}

// NewCOO returns an empty COO matrix with the given dimensions.
func NewCOO(rows, cols int32) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimensions %dx%d", rows, cols))
	}
	return &COO{NumRows: rows, NumCols: cols}
}

// Add appends a non-zero entry. Entries outside the matrix bounds panic:
// the generators are the only writers and must stay in range.
func (m *COO) Add(row, col int32, val float32) {
	if row < 0 || row >= m.NumRows || col < 0 || col >= m.NumCols {
		panic(fmt.Sprintf("sparse: entry (%d,%d) out of bounds %dx%d", row, col, m.NumRows, m.NumCols))
	}
	m.Entries = append(m.Entries, Entry{Row: row, Col: col, Val: val})
}

// NNZ reports the number of stored entries, including any duplicates that
// have not yet been coalesced.
func (m *COO) NNZ() int { return len(m.Entries) }

// Coalesce sorts entries in (col,row) order and merges duplicates by adding
// their values, dropping exact zeros produced by cancellation. It returns the
// receiver for chaining. Large inputs run the parallel counting-sort path at
// full width; the result is bit-identical at every worker count, so callers
// need no opt-in.
func (m *COO) Coalesce() *COO { return m.CoalesceWorkers(0) }

// CoalesceWorkers is Coalesce over an explicit worker count (0 selects
// GOMAXPROCS, 1 forces the serial path). Duplicate values are summed in
// source order either way — the counting sort is stable, the fallback
// comparison sort is a stable sort — so the merged floats, and therefore
// the whole result, are identical for every workers value.
func (m *COO) CoalesceWorkers(workers int) *COO {
	n := len(m.Entries)
	if n == 0 {
		return m
	}
	if !useCountingSort(n, m.NumRows, m.NumCols) {
		slices.SortStableFunc(m.Entries, entryColRow)
		m.Entries = mergeSortedEntries(m.Entries)
		return m
	}
	pool := sortPool(workers, n, m.NumRows, m.NumCols)
	scratch := make([]Entry, n)
	colStart := sortByColRow(m.Entries, scratch, m.NumRows, m.NumCols, pool)
	m.Entries = dedupSortedParallel(m.Entries, scratch, colStart, pool)
	return m
}

// Clone returns a deep copy.
func (m *COO) Clone() *COO {
	c := NewCOO(m.NumRows, m.NumCols)
	c.Entries = append([]Entry(nil), m.Entries...)
	return c
}
