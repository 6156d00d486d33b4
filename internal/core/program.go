package core

import "fmt"

// ArraySpec declares one chare array of a Program.
type ArraySpec struct {
	// ID must be unique within the program and index arrays densely from 0.
	ID ArrayID
	// N is the number of elements; indices run [0, N).
	N int
	// New constructs element i's initial state. Called once per element on
	// its initial PE before the program starts.
	New func(i int) Chare
	// Map gives element i's initial PE. Nil means block mapping:
	// contiguous ranges of ceil(N/P) elements per PE.
	Map func(i int, numPE int) int
}

// BlockMap is the default placement: contiguous index ranges, one per PE.
// With the paper's two-cluster topologies (cluster 0 = PEs [0, P/2)), a
// block map puts the first half of the index space on cluster 0.
func BlockMap(i, n, numPE int) int {
	per := (n + numPE - 1) / numPE
	pe := i / per
	if pe >= numPE {
		pe = numPE - 1
	}
	return pe
}

// Program is a complete message-driven application, runnable unchanged on
// the real-time runtime or the virtual-time simulator.
type Program struct {
	// Arrays declares the chare arrays. Element construction order is
	// deterministic: arrays in slice order, elements in index order.
	Arrays []ArraySpec

	// Start runs as the first handler on PE 0.
	Start func(ctx *Ctx)

	// OnReduction, if non-nil, runs on PE 0 each time an array-wide
	// reduction completes. seq is the per-array reduction round.
	OnReduction func(ctx *Ctx, array ArrayID, seq int64, value any)

	// LB, if non-nil, enables AtSync load balancing for the listed arrays.
	LB *LBConfig
}

// Validate checks structural invariants of the program.
func (p *Program) Validate() error {
	if p.Start == nil {
		return fmt.Errorf("core: program has no Start")
	}
	if len(p.Arrays) == 0 {
		return fmt.Errorf("core: program declares no arrays")
	}
	for i, a := range p.Arrays {
		if int(a.ID) != i {
			return fmt.Errorf("core: array %d has ID %d; IDs must be dense from 0", i, a.ID)
		}
		if a.N <= 0 {
			return fmt.Errorf("core: array %d has %d elements", a.ID, a.N)
		}
		if a.New == nil {
			return fmt.Errorf("core: array %d has no constructor", a.ID)
		}
	}
	if p.LB != nil {
		if p.LB.Strategy == nil {
			return fmt.Errorf("core: LB config has no strategy")
		}
		if len(p.LB.Arrays) == 0 {
			return fmt.Errorf("core: LB config lists no arrays")
		}
		for _, id := range p.LB.Arrays {
			if int(id) < 0 || int(id) >= len(p.Arrays) {
				return fmt.Errorf("core: LB config references unknown array %d", id)
			}
		}
	}
	return nil
}

// placement resolves the initial PE of element i of spec a.
func (a *ArraySpec) placement(i, numPE int) int {
	if a.Map != nil {
		pe := a.Map(i, numPE)
		if pe < 0 || pe >= numPE {
			// Clamp rather than crash: a map function bug should surface
			// as bad balance, not an out-of-range panic inside the runtime.
			if pe < 0 {
				return 0
			}
			return numPE - 1
		}
		return pe
	}
	return BlockMap(i, a.N, numPE)
}
