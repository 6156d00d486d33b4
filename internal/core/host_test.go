package core

import (
	"testing"
	"time"

	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
)

// stubBackend satisfies Backend for host-level unit tests.
type stubBackend struct {
	topo *topology.Topology
	sent []*Message
}

func newStubBackend(t *testing.T) *stubBackend {
	t.Helper()
	topo, err := topology.TwoClusters(2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return &stubBackend{topo: topo}
}

func (s *stubBackend) Route(m *Message) int32                                 { s.sent = append(s.sent, m); return m.DstPE }
func (s *stubBackend) Now() time.Duration                                     { return 0 }
func (s *stubBackend) Charge(time.Duration)                                   {}
func (s *stubBackend) Topo() *topology.Topology                               { return s.topo }
func (s *stubBackend) ArrayN(ArrayID) int                                     { return 4 }
func (s *stubBackend) ExitWith(any)                                           {}
func (s *stubBackend) Contribute(ElemRef, int, ArrayID, int64, any, ReduceOp) {}
func (s *stubBackend) AtSync(ElemRef, int)                                    {}
func (s *stubBackend) Record(trace.Event)                                     {}
func (s *stubBackend) Multicast(src int, members []ElemRef, e EntryID, d any) int {
	return SendEach(s, src, members, e, d)
}

// testTable builds an element table with one array per given size.
func testTable(sizes ...int) *ElemTable {
	prog := &Program{Arrays: make([]ArraySpec, len(sizes))}
	for i, n := range sizes {
		prog.Arrays[i] = ArraySpec{ID: ArrayID(i), N: n}
	}
	return NewElemTable(prog)
}

func TestPEHostDeliverToMissingElement(t *testing.T) {
	b := newStubBackend(t)
	h := NewPEHost(b, 0, testTable(2, 1))
	_, err := h.DeliverApp(&Message{Kind: KindApp, To: ElemRef{0, 0}})
	if err == nil {
		t.Error("delivery to missing element succeeded")
	}
	if err := h.ResumeFromSync(ElemRef{0, 0}); err == nil {
		t.Error("resume of missing element succeeded")
	}
}

func TestPEHostStatsAndReset(t *testing.T) {
	b := newStubBackend(t)
	h := NewPEHost(b, 0, testTable(2, 1))
	h.AddElement(ElemRef{0, 0}, funcChare(func(*Ctx, EntryID, any) {}))
	h.AddElement(ElemRef{1, 0}, funcChare(func(*Ctx, EntryID, any) {}))
	h.AddLoad(ElemRef{0, 0}, 5*time.Millisecond)
	h.AddLoad(ElemRef{9, 9}, time.Hour) // unknown ref: ignored

	stats := h.StatsAndReset([]ArrayID{0})
	if len(stats) != 1 {
		t.Fatalf("stats for %d elements, want 1 (array filter)", len(stats))
	}
	if stats[0].Load != 5*time.Millisecond {
		t.Errorf("load = %v", stats[0].Load)
	}
	// Reset happened.
	stats2 := h.StatsAndReset([]ArrayID{0})
	if stats2[0].Load != 0 {
		t.Errorf("load not reset: %v", stats2[0].Load)
	}
}

func TestPEHostWanCounting(t *testing.T) {
	// The Ctx checks CrossesWAN against the destination Route reports,
	// so the stub needs a resolver: element index 1 lives on PE 1, which
	// is in the other cluster.
	b := &resolvingBackend{
		stubBackend: newStubBackend(t),
		resolve: func(m *Message) {
			if m.To.Index == 1 {
				m.DstPE = 1
			}
		},
	}
	h := NewPEHost(b, 0, testTable(2, 1)) // PE 0 in cluster 0
	h.AddElement(ElemRef{0, 0}, funcChare(func(ctx *Ctx, e EntryID, d any) {
		ctx.Send(ElemRef{0, 0}, 0, nil) // local
		ctx.Send(ElemRef{0, 1}, 0, nil) // crosses the WAN
	}))
	if _, err := h.DeliverApp(&Message{Kind: KindApp, To: ElemRef{0, 0}}); err != nil {
		t.Fatal(err)
	}
	stats := h.StatsAndReset([]ArrayID{0})
	if stats[0].Msgs != 2 {
		t.Errorf("msgs = %d, want 2", stats[0].Msgs)
	}
	if stats[0].WanMsgs != 1 {
		t.Errorf("wan msgs = %d, want 1", stats[0].WanMsgs)
	}
}

type resolvingBackend struct {
	*stubBackend
	resolve func(*Message)
}

// Route resolves m and then releases it, as an executor that delivered
// the message before Route returned would: a sender that read m.DstPE
// after the hand-off would find it zeroed.
func (r *resolvingBackend) Route(m *Message) int32 {
	r.resolve(m)
	dst := m.DstPE
	ReleaseMessage(m)
	return dst
}

func TestPEHostAllAtSync(t *testing.T) {
	b := newStubBackend(t)
	h := NewPEHost(b, 0, testTable(2, 1))
	h.AddElement(ElemRef{0, 0}, funcChare(func(ctx *Ctx, e EntryID, d any) { ctx.AtSync() }))
	h.AddElement(ElemRef{0, 1}, funcChare(func(ctx *Ctx, e EntryID, d any) { ctx.AtSync() }))
	if h.AllAtSync([]ArrayID{0}) {
		t.Error("AllAtSync before any sync")
	}
	if _, err := h.DeliverApp(&Message{Kind: KindApp, To: ElemRef{0, 0}}); err != nil {
		t.Fatal(err)
	}
	if h.AllAtSync([]ArrayID{0}) {
		t.Error("AllAtSync with one of two synced")
	}
	if _, err := h.DeliverApp(&Message{Kind: KindApp, To: ElemRef{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if !h.AllAtSync([]ArrayID{0}) {
		t.Error("AllAtSync false after both synced")
	}
	// Arrays not mentioned don't block.
	if !h.AllAtSync([]ArrayID{}) {
		t.Error("empty array filter should be vacuously true")
	}
}
