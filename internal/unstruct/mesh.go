// Package unstruct implements iterative relaxation over an *irregular*
// mesh, demonstrating the paper's generality claim: "because the
// technique is encapsulated within the runtime layer, it can be applied
// to a wide variety of problem decomposition strategies, such as regular
// and irregular mesh decomposition ... without requiring modification of
// application software."
//
// The mesh is a deterministic random geometric graph: seeded points in
// the unit square, each connected to its k nearest neighbors
// (symmetrized). The graph is partitioned geometrically into chunks of
// contiguous vertical strips; chunks exchange halo values with every
// chunk they share an edge with — an irregular communication graph with
// varying neighbor counts and halo sizes, unlike the stencil's fixed
// four-neighbor pattern. The relaxation itself is Jacobi: each vertex
// moves toward the mean of its neighbors.
package unstruct

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Mesh is the immutable irregular graph shared by all chunks.
type Mesh struct {
	X, Y []float64 // vertex positions
	Adj  [][]int32 // sorted adjacency lists
}

// NewMesh builds a deterministic random geometric mesh with n vertices,
// each linked to its k nearest neighbors (symmetrized).
func NewMesh(n, k int, seed int64) (*Mesh, error) {
	if n < 2 || k < 1 || k >= n {
		return nil, fmt.Errorf("unstruct: bad mesh n=%d k=%d", n, k)
	}
	rng := rand.New(rand.NewSource(seed))
	m := &Mesh{X: make([]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.X[i] = rng.Float64()
		m.Y[i] = rng.Float64()
	}

	// k-nearest neighbors via a uniform bucket grid: candidates come from
	// expanding rings of buckets around each point, so construction is
	// near-linear in n instead of quadratic.
	side := int(math.Sqrt(float64(n) / float64(k+1)))
	if side < 1 {
		side = 1
	}
	bucketOf := func(x, y float64) (int, int) {
		bx := int(x * float64(side))
		by := int(y * float64(side))
		if bx >= side {
			bx = side - 1
		}
		if by >= side {
			by = side - 1
		}
		return bx, by
	}
	buckets := make([][]int32, side*side)
	for i := 0; i < n; i++ {
		bx, by := bucketOf(m.X[i], m.Y[i])
		buckets[by*side+bx] = append(buckets[by*side+bx], int32(i))
	}

	type distIdx struct {
		d float64
		i int32
	}
	nbrs := make([]map[int32]bool, n)
	for i := range nbrs {
		nbrs[i] = make(map[int32]bool, 2*k)
	}
	var cand []distIdx
	for i := 0; i < n; i++ {
		bx, by := bucketOf(m.X[i], m.Y[i])
		cand = cand[:0]
		// Expand rings of buckets until the k-th best candidate provably
		// (up to one bucket width — good enough for generating a
		// deterministic irregular graph) beats anything outside the
		// searched radius.
		for r := 0; r < side; r++ {
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					if absInt(dx) != r && absInt(dy) != r {
						continue // interior already visited
					}
					gx, gy := bx+dx, by+dy
					if gx < 0 || gx >= side || gy < 0 || gy >= side {
						continue
					}
					for _, j := range buckets[gy*side+gx] {
						if int(j) == i {
							continue
						}
						ddx, ddy := m.X[i]-m.X[j], m.Y[i]-m.Y[j]
						cand = append(cand, distIdx{d: ddx*ddx + ddy*ddy, i: j})
					}
				}
			}
			if len(cand) >= k {
				sort.Slice(cand, func(a, b int) bool {
					if cand[a].d != cand[b].d {
						return cand[a].d < cand[b].d
					}
					return cand[a].i < cand[b].i
				})
				safe := float64(r) / float64(side)
				if cand[k-1].d <= safe*safe {
					break
				}
			}
		}
		if len(cand) < k {
			return nil, fmt.Errorf("unstruct: could not find %d neighbors for vertex %d", k, i)
		}
		sort.Slice(cand, func(a, b int) bool {
			if cand[a].d != cand[b].d {
				return cand[a].d < cand[b].d
			}
			return cand[a].i < cand[b].i
		})
		for _, c := range cand[:k] {
			nbrs[i][c.i] = true
			nbrs[c.i][int32(i)] = true // symmetrize
		}
	}
	m.Adj = make([][]int32, n)
	for i, set := range nbrs {
		for j := range set {
			m.Adj[i] = append(m.Adj[i], j)
		}
		sort.Slice(m.Adj[i], func(a, b int) bool { return m.Adj[i][a] < m.Adj[i][b] })
	}
	return m, nil
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// NumVertices reports the vertex count.
func (m *Mesh) NumVertices() int { return len(m.X) }

// InitValue is the deterministic initial vertex value.
func (m *Mesh) InitValue(i int) float64 {
	return math.Sin(7*m.X[i]) + math.Cos(11*m.Y[i])
}

// Partition assigns vertices to nchunks chunks by x-coordinate strips of
// equal population — a simple geometric partitioner. The resulting
// chunk-to-chunk communication graph is irregular: strip widths, edge
// cuts, and neighbor counts all vary.
type Partition struct {
	ChunkOf []int32   // vertex -> chunk
	Verts   [][]int32 // chunk -> owned vertices (sorted)

	// Halo communication structure, per chunk:
	// SendTo[c] maps a destination chunk to the (sorted) list of c's own
	// vertices whose values that destination needs.
	SendTo []map[int32][]int32
	// NeedFrom[c] maps a source chunk to the vertices c reads from it.
	NeedFrom []map[int32][]int32
}

// NewPartition splits the mesh into nchunks strips.
func NewPartition(m *Mesh, nchunks int) (*Partition, error) {
	n := m.NumVertices()
	if nchunks < 1 || nchunks > n {
		return nil, fmt.Errorf("unstruct: %d chunks for %d vertices", nchunks, n)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if m.X[order[a]] != m.X[order[b]] {
			return m.X[order[a]] < m.X[order[b]]
		}
		return order[a] < order[b]
	})
	p := &Partition{
		ChunkOf:  make([]int32, n),
		Verts:    make([][]int32, nchunks),
		SendTo:   make([]map[int32][]int32, nchunks),
		NeedFrom: make([]map[int32][]int32, nchunks),
	}
	for c := 0; c < nchunks; c++ {
		lo := c * n / nchunks
		hi := (c + 1) * n / nchunks
		for _, v := range order[lo:hi] {
			p.ChunkOf[v] = int32(c)
			p.Verts[c] = append(p.Verts[c], int32(v))
		}
		sort.Slice(p.Verts[c], func(a, b int) bool { return p.Verts[c][a] < p.Verts[c][b] })
		p.SendTo[c] = make(map[int32][]int32)
		p.NeedFrom[c] = make(map[int32][]int32)
	}
	// Halo structure from cut edges.
	for v := 0; v < n; v++ {
		cv := p.ChunkOf[v]
		for _, u := range m.Adj[v] {
			cu := p.ChunkOf[u]
			if cu == cv {
				continue
			}
			// v (owned by cv) is read by chunk cu.
			appendUnique(&p.SendTo[cv], cu, int32(v))
			appendUnique(&p.NeedFrom[cu], cv, int32(v))
		}
	}
	return p, nil
}

func appendUnique(m *map[int32][]int32, key int32, v int32) {
	list := (*m)[key]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	if i < len(list) && list[i] == v {
		return
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = v
	(*m)[key] = list
}
