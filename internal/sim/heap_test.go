package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestEventQueueOrder: a shard's event queue — heap plus exec lane — pops
// exactly the (at, kind, key) order of a sorted reference, with pushes and
// pops interleaved at random, many events sharing an instant, exec events
// pushed both at the lane's instant and later, and the lane emptying and
// restarting at new instants. As in the engine, nothing is pushed before
// the instant of the last pop and a PE has at most one pending exec.
func TestEventQueueOrder(t *testing.T) {
	const peLo, peHi = 3, 203 // spans several bitmap words, not word-aligned
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := newEventQueue(peLo, peHi)
		var ref []event // pending events, sorted
		execPending := make(map[int32]bool)
		now := time.Duration(0)
		var deliverKey uint64
		var laneExecs, pops int
		for step := 0; step < 4000; step++ {
			if len(ref) > 0 && rng.Intn(5) < 2 {
				// Pop, and check against the reference.
				if got, want := q.peek(), ref[0]; got != want {
					t.Fatalf("seed %d step %d: peek %+v, want %+v", seed, step, got, want)
				}
				if got, want := q.nextAt(), ref[0].at; got != want {
					t.Fatalf("seed %d step %d: nextAt %v, want %v", seed, step, got, want)
				}
				got := q.pop()
				if got != ref[0] {
					t.Fatalf("seed %d step %d: pop %+v, want %+v", seed, step, got, ref[0])
				}
				ref = ref[1:]
				now = got.at
				if got.kind == evExec {
					delete(execPending, got.pe)
				}
				pops++
				continue
			}
			// Push: mostly at now or just after it, so instants repeat.
			at := now + time.Duration(rng.Intn(3))*time.Duration(rng.Intn(2))
			var ev event
			pe := int32(peLo + rng.Intn(peHi-peLo))
			if rng.Intn(2) == 0 && !execPending[pe] {
				execPending[pe] = true
				ev = event{at: at, key: uint64(pe), kind: evExec, pe: pe}
				if at == now && pops > 0 {
					laneExecs++
				}
			} else {
				deliverKey++
				ev = event{at: at, key: deliverKey, kind: evDeliver, pe: pe}
			}
			q.push(ev)
			i := sort.Search(len(ref), func(i int) bool { return ev.before(&ref[i]) })
			ref = append(ref, event{})
			copy(ref[i+1:], ref[i:])
			ref[i] = ev
			if q.len() != len(ref) {
				t.Fatalf("seed %d step %d: len %d, want %d", seed, step, q.len(), len(ref))
			}
		}
		for len(ref) > 0 {
			if got := q.pop(); got != ref[0] {
				t.Fatalf("seed %d drain: pop %+v, want %+v", seed, got, ref[0])
			}
			ref = ref[1:]
		}
		if q.len() != 0 || len(q.heap) != 0 {
			t.Fatalf("seed %d: %d events left", seed, q.len())
		}
		if laneExecs == 0 {
			t.Fatalf("seed %d: no exec event took the lane", seed)
		}
	}
}
