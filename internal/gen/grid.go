package gen

import (
	"fmt"
	"math/rand"

	"gearbox/internal/sparse"
)

// GridConfig parameterizes the road-network stand-in: a W x H lattice whose
// vertices connect to their 4-neighbours, with a fraction of random extra
// "shortcut" edges and random deletions. Degrees stay tiny and nearly
// uniform, matching road_usa's column-length distribution (Fig. 5d tops out
// at length 16).
type GridConfig struct {
	Width, Height int
	DropFrac      float64 // fraction of lattice edges removed
	ShortcutFrac  float64 // extra random edges as a fraction of vertices
	Seed          int64
}

// Validate checks the configuration.
func (c GridConfig) Validate() error {
	if c.Width < 2 || c.Height < 2 {
		return fmt.Errorf("gen: grid %dx%d too small", c.Width, c.Height)
	}
	if int64(c.Width)*int64(c.Height) > 1<<30 {
		return fmt.Errorf("gen: grid %dx%d too large", c.Width, c.Height)
	}
	if c.DropFrac < 0 || c.DropFrac >= 1 {
		return fmt.Errorf("gen: drop fraction %v out of [0,1)", c.DropFrac)
	}
	if c.ShortcutFrac < 0 {
		return fmt.Errorf("gen: shortcut fraction %v negative", c.ShortcutFrac)
	}
	return nil
}

// Grid generates the lattice adjacency matrix (symmetric, weighted).
func Grid(cfg GridConfig) (*sparse.CSC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := int32(cfg.Width * cfg.Height) //gearbox:narrow-ok Validate caps Width*Height at 2^30
	rng := rand.New(rand.NewSource(cfg.Seed))
	coo := sparse.NewCOO(n, n)
	id := func(x, y int) int32 { return int32(y*cfg.Width + x) } //gearbox:narrow-ok lattice ids are < Width*Height, capped at 2^30 by Validate
	addEdge := func(u, v int32) {
		w := 1 + float32(rng.Intn(9))
		coo.Add(u, v, w)
		coo.Add(v, u, w)
	}
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			if x+1 < cfg.Width && rng.Float64() >= cfg.DropFrac {
				addEdge(id(x, y), id(x+1, y))
			}
			if y+1 < cfg.Height && rng.Float64() >= cfg.DropFrac {
				addEdge(id(x, y), id(x, y+1))
			}
		}
	}
	shortcuts := int(cfg.ShortcutFrac * float64(n))
	for i := 0; i < shortcuts; i++ {
		u, v := rng.Int31n(n), rng.Int31n(n)
		if u != v {
			addEdge(u, v)
		}
	}
	return sparse.CSCFromCOO(coo), nil
}
