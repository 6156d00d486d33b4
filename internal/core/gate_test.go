package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStepGateBasicFlow(t *testing.T) {
	g := NewStepGate(2)
	if g.Ready() {
		t.Fatal("ready with no messages")
	}
	if _, ok := g.Deliver(0, "a"); !ok {
		t.Fatal("current-step message not accepted")
	}
	// Future-step message buffers.
	if _, ok := g.Deliver(1, "early"); ok {
		t.Fatal("future message accepted as current")
	}
	if g.PendingFuture() != 1 {
		t.Fatalf("pending = %d", g.PendingFuture())
	}
	if _, ok := g.Deliver(0, "b"); !ok || !g.Ready() {
		t.Fatal("step 0 not complete after two messages")
	}
	pend := g.Advance()
	if g.Step() != 1 || len(pend) != 1 || pend[0] != "early" {
		t.Fatalf("advance: step=%d pend=%v", g.Step(), pend)
	}
	if g.got != 1 {
		t.Fatalf("early message not counted: got=%d", g.got)
	}
	if g.Ready() {
		t.Fatal("step 1 ready with 1 of 2")
	}
}

// TestStepGateBuffersWithoutAllocating: the slice Advance hands back
// holds the next step's early messages, so a gate that buffers one
// message every step allocates only for the first.
func TestStepGateBuffersWithoutAllocating(t *testing.T) {
	g := NewStepGate(1)
	var m any = 1
	g.Deliver(0, m)
	step := func() {
		g.Deliver(g.Step()+1, m)
		if pend := g.Advance(); len(pend) != 1 || pend[0] != m {
			t.Fatalf("step %d: pend %v", g.Step(), pend)
		}
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("buffering an early message costs %v allocations per step", allocs)
	}
}

func TestStepGatePanicsOnStaleMessage(t *testing.T) {
	g := NewStepGate(1)
	g.Deliver(0, nil)
	g.Advance()
	defer func() {
		if recover() == nil {
			t.Error("stale message accepted")
		}
	}()
	g.Deliver(0, nil)
}

func TestStepGateAdvanceBeforeReadyPanics(t *testing.T) {
	g := NewStepGate(1)
	defer func() {
		if recover() == nil {
			t.Error("premature Advance allowed")
		}
	}()
	g.Advance()
}

func TestStepGateZeroNeed(t *testing.T) {
	// Objects with no neighbors are immediately ready every step.
	g := NewStepGate(0)
	for s := 0; s < 5; s++ {
		if !g.Ready() {
			t.Fatalf("step %d not ready", s)
		}
		g.Advance()
	}
	if g.Step() != 5 {
		t.Fatalf("step = %d", g.Step())
	}
}

// Property: for any interleaving where each of S steps gets exactly N
// messages (possibly early by any amount), the gate delivers exactly N
// messages per step in non-decreasing step order and ends drained.
func TestStepGateInterleavingProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		steps := 1 + rng.Intn(6)
		need := 1 + rng.Intn(4)
		type tagged struct{ step, id int }
		var msgs []tagged
		for s := 0; s < steps; s++ {
			for i := 0; i < need; i++ {
				msgs = append(msgs, tagged{s, i})
			}
		}
		// Shuffle with the constraint that a step's messages may arrive
		// early but never late: sort by (step + random non-negative skew)
		// is complex; instead shuffle fully and deliver lazily — the gate
		// itself enforces order by buffering.
		rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })

		g := NewStepGate(need)
		applied := make(map[int]int)
		apply := func(m any) { applied[g.Step()]++ }
		drain := func() {
			for g.Ready() && g.Step() < steps {
				if g.Step() == steps-1 {
					// final step: advance past end not required
				}
				pend := g.Advance()
				for _, m := range pend {
					apply(m)
				}
			}
		}
		for _, m := range msgs {
			if v, ok := g.Deliver(m.step, m); ok {
				apply(v)
			}
			drain()
		}
		for s := 0; s < steps; s++ {
			if applied[s] != need {
				return false
			}
		}
		return g.PendingFuture() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
