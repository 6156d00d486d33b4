package leanmd

import (
	"reflect"
	"sort"
	"testing"
)

// referenceGeometry builds the pair decomposition the plain way: a set of
// normalized pairs over every cell's 27 offsets, then one full sort.
func referenceGeometry(nx, ny, nz int) (pairs []CellPair, pairsOf [][]int) {
	g := &Geometry{NX: nx, NY: ny, NZ: nz}
	n := nx * ny * nz
	seen := make(map[CellPair]bool)
	for c := 0; c < n; c++ {
		x, y, z := g.coords(c)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					m := g.index(wrap(x+dx, nx), wrap(y+dy, ny), wrap(z+dz, nz))
					p := CellPair{A: min(c, m), B: max(c, m)}
					if !seen[p] {
						seen[p] = true
						pairs = append(pairs, p)
					}
				}
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	pairsOf = make([][]int, n)
	for pi, p := range pairs {
		pairsOf[p.A] = append(pairsOf[p.A], pi)
		if !p.Self() {
			pairsOf[p.B] = append(pairsOf[p.B], pi)
		}
	}
	return pairs, pairsOf
}

// TestGeometryMatchesReference pins the pair order: pair indices decide
// placement (Map) and every golden, so NewGeometry must list exactly the
// reference's pairs in the reference's order, on lattices that alias
// under wrap-around as well as on ones that do not, and build them
// without a per-pair allocation.
func TestGeometryMatchesReference(t *testing.T) {
	for _, l := range [][3]int{{1, 1, 1}, {2, 2, 2}, {2, 3, 1}, {3, 3, 3}, {4, 5, 6}, {6, 6, 6}} {
		g, err := NewGeometry(l[0], l[1], l[2])
		if err != nil {
			t.Fatal(err)
		}
		pairs, pairsOf := referenceGeometry(l[0], l[1], l[2])
		if !reflect.DeepEqual(g.Pairs, pairs) {
			t.Errorf("%v: pairs differ from the reference (%d vs %d)", l, len(g.Pairs), len(pairs))
		}
		if !reflect.DeepEqual(g.PairsOf, pairsOf) {
			t.Errorf("%v: PairsOf differs from the reference", l)
		}
	}
	// Four allocations: the Geometry, Pairs, PairsOf and its one backing
	// array.
	if n := testing.AllocsPerRun(10, func() { NewGeometry(6, 6, 6) }); n > 4 {
		t.Errorf("NewGeometry(6,6,6) makes %.0f allocations, want at most 4", n)
	}
}
