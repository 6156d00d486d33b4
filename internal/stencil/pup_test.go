package stencil

import (
	"bytes"
	"strings"
	"testing"

	"gridmdo/internal/core"
)

// TestBlockPUPRoundTrip pins the migration invariant directly:
// pack→unpack→pack is byte-identical, and a freshly constructed block
// adopts the packed step and grid.
func TestBlockPUPRoundTrip(t *testing.T) {
	p := &Params{Width: 24, Height: 24, VX: 3, VY: 3, Steps: 4}
	b := newBlock(p, 4)
	b.gate.JumpTo(2)
	for i := range b.cur {
		b.cur[i] = float64(i) * 0.5
	}
	data, err := core.PUPPack(b)
	if err != nil {
		t.Fatal(err)
	}
	rb := newBlock(p, 4)
	if err := core.PUPUnpack(rb, data); err != nil {
		t.Fatal(err)
	}
	if rb.gate.Step() != 2 || rb.w != b.w || rb.h != b.h {
		t.Errorf("restored shape/step mismatch: step=%d w=%d h=%d", rb.gate.Step(), rb.w, rb.h)
	}
	for i := range b.cur {
		if rb.cur[i] != b.cur[i] {
			t.Fatalf("grid mismatch at %d", i)
		}
	}
	data2, err := core.PUPPack(rb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("pack→unpack→pack not byte-identical")
	}
	if err := core.PUPUnpack(newBlock(p, 4), []byte("junk")); err == nil {
		t.Error("junk restored")
	}

	// A block from a different decomposition refuses the state.
	pOther := &Params{Width: 24, Height: 24, VX: 3, VY: 6, Steps: 4}
	err = core.PUPUnpack(newBlock(pOther, 4), data)
	if err == nil || !strings.Contains(err.Error(), "packed state is") {
		t.Errorf("shape mismatch: %v", err)
	}
}

// TestBlockPUPRefusesMidStep ensures a block holding buffered future
// ghosts cannot be packed: that is not a safe migration point.
func TestBlockPUPRefusesMidStep(t *testing.T) {
	p := &Params{Width: 16, Height: 16, VX: 2, VY: 2, Steps: 4}
	b := newBlock(p, 0)
	b.gate.Deliver(1, ghostMsg{Dir: 0, Step: 1, Vals: make([]float64, b.h)})
	if b.gate.PendingFuture() == 0 {
		t.Fatal("test setup: no buffered future ghost")
	}
	_, err := core.PUPPack(b)
	if err == nil || !strings.Contains(err.Error(), "future ghosts") {
		t.Errorf("mid-step pack: %v", err)
	}
}
