package sim

import (
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/topology"
)

// TestPESpeedScalesCharges: the same charged work takes proportionally
// longer on a slower PE.
func TestPESpeedScalesCharges(t *testing.T) {
	topo, err := topology.TwoClusters(2, 0, topology.WithIntraLink(topology.Link{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.SetClusterPairLink(0, 1, topology.Link{}); err != nil {
		t.Fatal(err)
	}
	if err := topo.SetPESpeed(1, 0.5); err != nil {
		t.Fatal(err)
	}

	var fastDone, slowDone time.Duration
	prog := &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: 2,
			New: func(i int) core.Chare {
				return funcChare(func(ctx *core.Ctx, e core.EntryID, d any) {
					ctx.Charge(10 * time.Millisecond)
					if ctx.PE() == 0 {
						fastDone = ctx.Time() + 10*time.Millisecond
					} else {
						slowDone = ctx.Time() + 20*time.Millisecond
					}
					ctx.Contribute(1.0, core.OpSum)
				})
			},
		}},
		Start: func(ctx *core.Ctx) {
			ctx.Send(core.ElemRef{Array: 0, Index: 0}, 0, nil)
			ctx.Send(core.ElemRef{Array: 0, Index: 1}, 0, nil)
		},
		OnReduction: func(ctx *core.Ctx, a core.ArrayID, seq int64, v any) { ctx.ExitWith(nil) },
	}
	e, err := New(topo, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	// PE 0 (speed 1) charged 10ms; PE 1 (speed 0.5) charged 20ms.
	if s.PEBusy[0] != 10*time.Millisecond {
		t.Errorf("fast PE busy %v, want 10ms", s.PEBusy[0])
	}
	if s.PEBusy[1] != 20*time.Millisecond {
		t.Errorf("slow PE busy %v, want 20ms", s.PEBusy[1])
	}
	_ = fastDone
	_ = slowDone
}

func TestSetPESpeedValidation(t *testing.T) {
	topo, err := topology.TwoClusters(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.SetPESpeed(5, 1); err == nil {
		t.Error("out-of-range PE accepted")
	}
	if err := topo.SetPESpeed(0, 0); err == nil {
		t.Error("zero speed accepted")
	}
	if err := topo.SetPESpeed(0, -1); err == nil {
		t.Error("negative speed accepted")
	}
	if err := topo.SetClusterSpeed(topology.ClusterID(9), 1); err == nil {
		t.Error("unknown cluster accepted")
	}
	if got := topo.PESpeed(0); got != 1 {
		t.Errorf("default speed %v", got)
	}
	if err := topo.SetClusterSpeed(1, 0.25); err != nil {
		t.Fatal(err)
	}
	if got := topo.PESpeed(1); got != 0.25 {
		t.Errorf("cluster speed %v", got)
	}
	if got := topo.PESpeed(0); got != 1 {
		t.Errorf("other cluster affected: %v", got)
	}
}
