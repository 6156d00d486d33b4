//go:build !race

// The race detector allocates on its own account; the pin runs without it.

package leanmd

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"gridmdo/internal/core"
	"gridmdo/internal/topology"
)

// TestStepAllocatesOnlySendBoxes pins what a LeanMD time step allocates
// on the real runtime: the interface box of each ctx.Send or
// ctx.Multicast payload, and nothing per atom. The difference of a 25-
// and a 5-step run cancels construction and the reductions. Reusing each
// pair's force buffers and each cell's snapshot, and handing the gate the
// payload already boxed, is what keeps the rest at zero.
func TestStepAllocatesOnlySendBoxes(t *testing.T) {
	if testing.Short() {
		t.Skip("real runtime, 30 steps of the benchmark's system")
	}
	g, err := NewGeometry(6, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	run := func(steps int) int64 {
		p := DefaultParams()
		p.AtomsPerCell = 12
		p.Steps, p.Warmup = steps, 2
		prog, _, err := BuildProgram(p)
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

	// Per step each cell multicasts once and each pair sends one force
	// message per distinct cell.
	sends := g.NumCells
	for _, cp := range g.Pairs {
		if cp.Self() {
			sends++
		} else {
			sends += 2
		}
	}
	// A box is the 40-byte message struct, 48 bytes in the allocator's
	// size class. Two boxes per send leave the runtime room (its message
	// pool refills with the schedule) and still fail a payload boxed
	// twice, let alone a fresh force vector (12 atoms × 24 bytes).
	box := float64(unsafe.Sizeof(forceMsg{}))
	t.Logf("%.0f bytes per step, %d sends (%.1f bytes per send)", perStep, sends, perStep/float64(sends))
	if limit := 2 * box * float64(sends); perStep > limit {
		t.Errorf("a step allocates %.0f bytes, want at most %.0f (%d sends)", perStep, limit, sends)
	}
}
