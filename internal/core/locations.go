package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Locations is the runtime's location manager: it tracks which PE owns
// each array element and derived counts needed by the reduction and
// load-balancing protocols. Reads are frequent (every send); writes happen
// only during element creation and load-balancing migrations. The owner
// table never changes shape after construction and its entries are
// atomic, so the per-send lookup takes no lock; mu orders writers and
// guards the derived counts.
type Locations struct {
	pe [][]atomic.Int32 // per array, per element: owning PE

	mu     sync.RWMutex
	counts [][]int // per array, per PE: elements owned
}

// NewLocations builds the location table for a program on numPE PEs using
// each array's initial placement.
func NewLocations(p *Program, numPE int) *Locations {
	l := &Locations{
		pe:     make([][]atomic.Int32, len(p.Arrays)),
		counts: make([][]int, len(p.Arrays)),
	}
	for ai := range p.Arrays {
		spec := &p.Arrays[ai]
		l.pe[ai] = make([]atomic.Int32, spec.N)
		l.counts[ai] = make([]int, numPE)
		for i := 0; i < spec.N; i++ {
			pe := spec.placement(i, numPE)
			l.pe[ai][i].Store(int32(pe))
			l.counts[ai][pe]++
		}
	}
	return l
}

// PEOf reports the PE currently owning an element.
func (l *Locations) PEOf(ref ElemRef) int32 {
	return l.pe[ref.Array][ref.Index].Load()
}

// LocalCount reports how many elements of array a live on PE pe.
func (l *Locations) LocalCount(a ArrayID, pe int) int {
	l.mu.RLock()
	n := l.counts[a][pe]
	l.mu.RUnlock()
	return n
}

// Move records an element's migration to a new PE and returns its previous
// PE. It must only be called while the application is at a load-balancing
// sync point (no application messages in flight to the element).
func (l *Locations) Move(ref ElemRef, toPE int) (fromPE int32, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if int(ref.Array) >= len(l.pe) || ref.Index < 0 || ref.Index >= len(l.pe[ref.Array]) {
		return 0, fmt.Errorf("core: move of unknown element %v", ref)
	}
	from := l.pe[ref.Array][ref.Index].Load()
	if int(from) == toPE {
		return from, nil
	}
	counts := l.counts[ref.Array]
	counts[from]--
	counts[toPE]++
	l.pe[ref.Array][ref.Index].Store(int32(toPE))
	return from, nil
}

// ElementsOn returns the elements of array a currently on PE pe, in index
// order.
func (l *Locations) ElementsOn(a ArrayID, pe int) []ElemRef {
	var out []ElemRef
	for i := range l.pe[a] {
		if int(l.pe[a][i].Load()) == pe {
			out = append(out, ElemRef{Array: a, Index: i})
		}
	}
	return out
}
