package ampi

// AMPI rank migration. In Charm++, AMPI thread stacks migrate with their
// element via isomalloc; Go offers no way to serialize a goroutine stack.
// The honest adaptation is a restartable-loop contract: all of a rank's
// progress lives in an explicit state value serialized through the same
// PUP visitor every other migratable chare uses, and after a migration the
// rank body is re-entered from the top on the destination PE with the
// unpacked state. What crosses the wire is exactly what the rank cannot
// rebuild: the user state and the unexpected-message queue.

import (
	"fmt"
	"runtime"

	"gridmdo/internal/core"
)

// MigratableMain is an MPI-style program whose ranks can migrate between
// PEs at AtSync points. Run must derive all progress from the state value:
// after a migration it is re-entered from the top with the PUP-restored
// state, so advance the state past a sync point *before* calling AtSync
// and re-entry never repeats completed work:
//
//	for st.Step < steps {
//		// ... exchange and compute step st.Step ...
//		st.Step++
//		if st.Step%syncEvery == 0 {
//			c.AtSync()
//		}
//	}
//
// Enter AtSync only after receiving every message already sent to this
// rank (a symmetric exchange or barrier does this naturally); a rank with
// messages still in flight toward it cannot be packed and aborts the
// balancing round.
type MigratableMain struct {
	// NewState builds rank's initial state. It also runs on the
	// destination PE of a migration to construct the value the packed
	// bytes are unpacked into, so it must not itself perform work that
	// Run would repeat.
	NewState func(rank, size int) core.PUPable
	// Run is the rank body.
	Run func(c *Comm, st core.PUPable)
}

// BuildMigratableProgram is BuildProgram for ranks that participate in
// AtSync load balancing. Pair it with WithLB (or set the program's LB
// config directly) to enable migration.
func BuildMigratableProgram(n int, main MigratableMain, opts ...Option) (*core.Program, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ampi: %d ranks", n)
	}
	if main.NewState == nil || main.Run == nil {
		return nil, fmt.Errorf("ampi: MigratableMain needs both NewState and Run")
	}
	return buildProgram(n, func(i int, met *ampiMetrics) *rankChare {
		st := main.NewState(i, n)
		if st == nil {
			panic(fmt.Sprintf("ampi: NewState returned nil for rank %d", i))
		}
		c := newComm(i, n, met)
		c.migratable = true
		return &rankChare{mig: &main, st: st, comm: c}
	}, opts)
}

// AtSync enters the load-balancing barrier, handing the PE back to the
// scheduler until the round completes. For a rank that stays put, AtSync
// returns in place. For a rank the balancer migrates, AtSync never
// returns: the goroutine exits here (its deferred functions run, and must
// not touch the Comm), and the destination PE re-enters Run from the top
// with the migrated state. Only ranks built with BuildMigratableProgram
// may call AtSync.
func (c *Comm) AtSync() {
	if !c.migratable {
		panic("ampi: AtSync on a rank built with BuildProgram — migration needs BuildMigratableProgram")
	}
	c.ctx.AtSync()
	c.yield <- ySync
	select {
	case <-c.resumeSync:
		// Resumed on this PE; the entry handler refreshed c.ctx.
	case <-c.evicted:
		runtime.Goexit()
	}
}

// PUP implements core.Migratable: the user state, the completion flag,
// and the unexpected-message queue move; the goroutine does not (see
// MigratableMain). Ranks built with BuildProgram refuse to pack, which
// surfaces as the load balancer's aggregated evict error.
func (r *rankChare) PUP(p *core.PUP) {
	if r.mig == nil {
		p.Errorf("ampi: rank %d was built with BuildProgram; migration needs BuildMigratableProgram", r.comm.rank)
		return
	}
	if !p.Unpacking() && r.comm.waiting != nil {
		p.Errorf("ampi: rank %d is blocked in a receive and cannot be packed", r.comm.rank)
		return
	}
	p.Bool(&r.done)
	r.st.PUP(p)
	core.PUPSlice(p, &r.comm.inbox, 4, 0, func(q **pkt, p *core.PUP) {
		if p.Unpacking() {
			*q = &pkt{}
		}
		(*q).PUP(p)
	})
}

// Evicted implements core.Evictable: when the balancer migrates this rank
// away, wake the goroutine parked in AtSync so its stack is released. The
// state was packed before eviction, so whatever the dying goroutine's
// deferred functions do to it no longer matters.
func (r *rankChare) Evicted() {
	if r.parked {
		r.parked = false
		close(r.comm.evicted)
	}
}

var (
	_ core.Migratable = (*rankChare)(nil)
	_ core.Evictable  = (*rankChare)(nil)
)
