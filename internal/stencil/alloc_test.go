//go:build !race

// The race detector allocates on its own account; the pin runs without it.

package stencil

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"gridmdo/internal/core"
	"gridmdo/internal/topology"
)

// TestStepAllocatesOnlySendBoxes pins what a stencil time step allocates
// on the real runtime: the interface box of each ghost's ctx.Send, and no
// border vector. The difference of a 25- and a 5-step run cancels
// construction and the reductions. The parity-indexed border buffers, and
// handing the gate the payload already boxed, keep the rest at zero.
func TestStepAllocatesOnlySendBoxes(t *testing.T) {
	if testing.Short() {
		t.Skip("real runtime, 30 steps of a 768×768 mesh")
	}
	p := Params{Width: 768, Height: 768, VX: 8, VY: 8, Warmup: 2}
	run := func(steps int) int64 {
		p := p
		p.Steps = steps
		prog, err := BuildProgram(&p)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := topology.Single(2)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt, err := core.NewRuntime(topo, prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	// A collection empties the runtime's message pool, and refilling it
	// would count against whichever run the collection fell in.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perStep := float64(run(25)-run(5)) / 20

	// One ghost per block and neighbour: each of the VX·(VY−1) vertical
	// and VY·(VX−1) horizontal block boundaries carries one each way.
	sends := 2 * (p.VX*(p.VY-1) + p.VY*(p.VX-1))
	// A box is the 40-byte message struct, 48 bytes in the allocator's
	// size class. Two boxes per send leave the runtime room (its message
	// pool refills with the schedule) and still fail a payload boxed
	// twice, let alone a fresh border vector (96 cells × 8 bytes).
	box := float64(unsafe.Sizeof(ghostMsg{}))
	t.Logf("%.0f bytes per step, %d sends (%.1f bytes per send)", perStep, sends, perStep/float64(sends))
	if limit := 2 * box * float64(sends); perStep > limit {
		t.Errorf("a step allocates %.0f bytes, want at most %.0f (%d sends)", perStep, limit, sends)
	}
}
