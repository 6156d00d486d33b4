// Package leanmd implements the paper's second evaluation application: a
// classical molecular dynamics mini-app patterned on LeanMD. Atoms are
// partitioned into a periodic lattice of cells (6×6×6 = 216 in the
// paper's benchmark); every pair of neighboring cells — plus each cell's
// self-pair — is a separate cell-pair object that computes the
// electrostatic and van der Waals interactions between the two atom sets
// (2,808 neighbor pairs + 216 self-pairs = 3,024 pair objects). Each time
// step, every cell integrates the forces on its atoms and multicasts its
// coordinates to the 26 dependent cell-pairs (plus its self-pair); each
// pair computes forces and returns them to its two cells.
//
// The latency-tolerance mechanism is the paper's "subset A / subset B"
// argument: cell-pairs whose cells live in the local cluster can execute
// while pairs waiting on remote-cluster coordinates sit queued.
package leanmd

import (
	"fmt"
	"slices"
)

// cellID is a cell's linear index.
type cellID = int

// Geometry precomputes the cell lattice and the pair decomposition.
type Geometry struct {
	NX, NY, NZ int
	NumCells   int

	// Pairs lists the unordered cell pairs (A <= B); self-pairs have A == B.
	Pairs []CellPair
	// PairsOf[c] lists pair indices that involve cell c, sorted.
	PairsOf [][]int
}

// CellPair names the two cells of one pair object.
type CellPair struct {
	A, B cellID
}

// Self reports whether the pair is a cell's self-interaction object.
func (p CellPair) Self() bool { return p.A == p.B }

// NewGeometry builds the periodic 26-neighbor pair decomposition. Pairs
// come out sorted by (A, B): each cell c in turn emits its pairs with the
// distinct neighbors n >= c (the neighborhood is symmetric, so that is
// every pair once; small lattices alias under wrap-around).
func NewGeometry(nx, ny, nz int) (*Geometry, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("leanmd: bad lattice %dx%dx%d", nx, ny, nz)
	}
	g := &Geometry{NX: nx, NY: ny, NZ: nz, NumCells: nx * ny * nz}

	// Every cell of the torus has the same number d of distinct neighbors
	// (self included), so a cell is in d pairs and there are N(d+1)/2.
	d := min(nx, 3) * min(ny, 3) * min(nz, 3)
	g.Pairs = make([]CellPair, 0, g.NumCells*(d+1)/2)
	g.PairsOf = make([][]int, g.NumCells)
	of := make([]int, g.NumCells*d)
	for c := range g.PairsOf {
		g.PairsOf[c] = of[c*d : c*d : (c+1)*d]
	}

	var nbr [27]int
	for c := 0; c < g.NumCells; c++ {
		x, y, z := g.coords(c)
		k := 0
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					if n := g.index(wrap(x+dx, nx), wrap(y+dy, ny), wrap(z+dz, nz)); n >= c {
						nbr[k] = n
						k++
					}
				}
			}
		}
		slices.Sort(nbr[:k])
		for i, n := range nbr[:k] {
			if i > 0 && n == nbr[i-1] {
				continue
			}
			// Pair indices only grow, so each PairsOf list stays sorted.
			pi := len(g.Pairs)
			g.Pairs = append(g.Pairs, CellPair{A: c, B: n})
			g.PairsOf[c] = append(g.PairsOf[c], pi)
			if n != c {
				g.PairsOf[n] = append(g.PairsOf[n], pi)
			}
		}
	}
	return g, nil
}

func wrap(v, n int) int {
	v %= n
	if v < 0 {
		v += n
	}
	return v
}

func (g *Geometry) index(x, y, z int) int { return (z*g.NY+y)*g.NX + x }

func (g *Geometry) coords(c int) (x, y, z int) {
	x = c % g.NX
	y = (c / g.NX) % g.NY
	z = c / (g.NX * g.NY)
	return
}

// NumPairs reports the pair-object count (3,024 for the paper's 6×6×6).
func (g *Geometry) NumPairs() int { return len(g.Pairs) }
