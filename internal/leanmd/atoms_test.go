package leanmd

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestInitAtomsMatchesFreshSource: each cell's atoms are exactly those a
// freshly seeded PCG for (Seed, cell) places, whatever cells were built
// before and on whichever goroutine.
func TestInitAtomsMatchesFreshSource(t *testing.T) {
	p := DefaultParams()
	p.AtomsPerCell = 12
	g, err := NewGeometry(6, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	cells := []int{0, 17, 5, 215, 17, 100, 0}
	errs := make(chan string, 4*len(cells))
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for _, c := range cells {
				pos, vel := p.InitAtoms(c, g)
				wantPos, wantVel := p.placeAtoms(rand.NewPCG(uint64(p.Seed), uint64(c)), c, g)
				if !reflect.DeepEqual(pos, wantPos) || !reflect.DeepEqual(vel, wantVel) {
					errs <- fmt.Sprintf("cell %d: atoms differ from a fresh source's", c)
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
