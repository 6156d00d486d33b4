package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestEventHeapOrder: whatever the push order, events pop in (at, kind,
// key) order, through growth, drain to empty and refill.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	for round := 0; round < 3; round++ {
		n := []int{1, 2, 257}[round]
		want := make([]event, n)
		for i := range want {
			want[i] = event{at: time.Duration(rng.Intn(8)), kind: evKind(rng.Intn(2)), key: uint64(i)}
		}
		for _, i := range rng.Perm(n) {
			h.push(want[i])
		}
		sort.Slice(want, func(i, j int) bool { return want[i].before(&want[j]) })
		for i := range want {
			if got := h.pop(); got != want[i] {
				t.Fatalf("round %d pop %d = %+v, want %+v", round, i, got, want[i])
			}
		}
		if len(h) != 0 {
			t.Fatalf("round %d: %d events left", round, len(h))
		}
	}
}
