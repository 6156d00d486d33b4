package core

import (
	"strings"
	"testing"
	"time"

	"gridmdo/internal/topology"
)

// migChare wraps a handler func with a no-op PUP method so it passes the
// Migratable audit NewRuntime runs over load-balanced arrays.
type migChare struct {
	fn func(ctx *Ctx, entry EntryID, data any)
}

func (m *migChare) Recv(ctx *Ctx, entry EntryID, data any) { m.fn(ctx, entry, data) }
func (m *migChare) PUP(*PUP)                               {}

// mkLBMgr assembles an LBMgr over a stub host for protocol error tests.
func mkLBMgr(t *testing.T, pe int) (*LBMgr, *PEHost, *[]*Message) {
	t.Helper()
	topo, err := topology.TwoClusters(2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	b := &stubBackend{topo: topo}
	prog := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 2, New: func(int) Chare { return &migChare{fn: func(*Ctx, EntryID, any) {}} }}},
		Start:  func(*Ctx) {},
	}
	h := NewPEHost(b, pe, NewElemTable(prog))
	loc := NewLocations(prog, 2)
	var sent []*Message
	cfg := &LBConfig{Arrays: []ArrayID{0}, Strategy: moveAllTo(0)}
	mgr := NewLBMgr(pe, cfg, topo, loc, h, prog, func(m *Message) { sent = append(sent, m) })
	return mgr, h, &sent
}

func TestLBMgrBadPayload(t *testing.T) {
	mgr, _, _ := mkLBMgr(t, 0)
	if err := mgr.Handle(&Message{Kind: KindLB, Data: "junk"}); err == nil {
		t.Error("junk payload accepted")
	}
	if err := mgr.Handle(&Message{Kind: KindLB, Data: lbMsg{Phase: lbPhase(99)}}); err == nil {
		t.Error("unknown phase accepted")
	}
}

func TestLBMgrStatsAtNonRoot(t *testing.T) {
	mgr, _, _ := mkLBMgr(t, 1)
	err := mgr.Handle(&Message{Kind: KindLB, SrcPE: 0, Data: lbMsg{Phase: lbStats}})
	if err == nil {
		t.Error("stats accepted at non-root PE")
	}
}

func TestLBMgrDuplicateReport(t *testing.T) {
	mgr, _, _ := mkLBMgr(t, 0)
	m := &Message{Kind: KindLB, SrcPE: 1, Data: lbMsg{Phase: lbStats, Stats: []ElemLoad{{Ref: ElemRef{0, 1}, PE: 1}}}}
	if err := mgr.Handle(m); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Handle(m); err == nil {
		t.Error("duplicate report accepted")
	}
}

func TestLBMgrEvictMissingElement(t *testing.T) {
	mgr, _, _ := mkLBMgr(t, 0)
	err := mgr.Handle(&Message{Kind: KindLB, SrcPE: 0, Data: lbMsg{
		Phase: lbEvict, Moves: []Move{{Ref: ElemRef{0, 1}, ToPE: 1}},
	}})
	if err == nil {
		t.Error("eviction of missing element accepted")
	}
}

// TestLBMgrEvictNonDestructive checks the all-or-nothing contract: a plan
// with any invalid move must leave the host and the location table
// untouched, ship nothing, and report every problem in one error.
func TestLBMgrEvictNonDestructive(t *testing.T) {
	mgr, h, sent := mkLBMgr(t, 0)
	good := ElemRef{0, 0}
	h.AddElement(good, &migChare{fn: func(*Ctx, EntryID, any) {}})
	err := mgr.Handle(&Message{Kind: KindLB, SrcPE: 0, Data: lbMsg{
		Phase: lbEvict, Moves: []Move{
			{Ref: good, ToPE: 1},
			{Ref: ElemRef{0, 1}, ToPE: 1}, // not hosted here
			{Ref: good, ToPE: 10_000},     // out-of-range destination
		},
	}})
	if err == nil {
		t.Fatal("invalid plan accepted")
	}
	for _, want := range []string{"missing element", "out-of-range", "no elements migrated"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error %q missing %q", err, want)
		}
	}
	if !h.Has(good) {
		t.Error("valid element was evicted despite failed plan")
	}
	if got := mgr.loc.PEOf(good); got != 0 {
		t.Errorf("location table mutated: element on PE %d", got)
	}
	if len(*sent) != 0 {
		t.Errorf("%d messages emitted by failed evict", len(*sent))
	}
}

// counterChare is a minimal migratable chare: one count that travels
// through its PUP method.
type counterChare struct{ n int64 }

func (c *counterChare) Recv(ctx *Ctx, entry EntryID, data any) {}

func (c *counterChare) PUP(p *PUP) { p.Varint(&c.n) }

// TestLBEvictStateBytes checks that an eviction reports honest Bytes:
// the PUP-serialized element state must be counted, not a fixed guess.
func TestLBEvictStateBytes(t *testing.T) {
	mgr, h, sent := mkLBMgr(t, 0)
	ref := ElemRef{0, 0}
	big := &counterChare{n: 7}
	h.AddElement(ref, big)
	if err := mgr.Handle(&Message{Kind: KindLB, SrcPE: 0, Data: lbMsg{
		Phase: lbEvict, Moves: []Move{{Ref: ref, ToPE: 1}},
	}}); err != nil {
		t.Fatal(err)
	}
	if len(*sent) != 1 {
		t.Fatalf("emitted %d messages, want 1", len(*sent))
	}
	m := (*sent)[0]
	p := m.Data.(lbMsg)
	if len(p.State) == 0 {
		t.Fatal("arrive message carries no serialized state")
	}
	want := 32 + len(p.State) + lbMetaBytes
	if m.Bytes != want {
		t.Errorf("Bytes = %d, want %d (32 + state %d + meta %d)", m.Bytes, want, len(p.State), lbMetaBytes)
	}
}

func TestLBMgrElementAtSyncWithoutConfigIsNoop(t *testing.T) {
	topo, err := topology.TwoClusters(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := &stubBackend{topo: topo}
	h := NewPEHost(b, 0, NewElemTable(&Program{}))
	mgr := NewLBMgr(0, nil, topo, nil, h, nil, func(*Message) { t.Error("emitted without config") })
	mgr.ElementAtSync() // must not panic or emit
}

func TestLBMgrInvalidMovesDropped(t *testing.T) {
	// Strategy returning out-of-range and no-op moves: the round must
	// complete with zero migrations (resume broadcast only).
	topo, err := topology.TwoClusters(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{
		Arrays: []ArraySpec{{
			ID: 0, N: 2,
			New: func(i int) Chare {
				return &migChare{fn: func(ctx *Ctx, entry EntryID, data any) {
					switch entry {
					case 0:
						ctx.AtSync()
					case EntryResumeFromSync:
						ctx.Contribute(1.0, OpSum)
					}
				}}
			},
		}},
		Start: func(ctx *Ctx) {
			ctx.Send(ElemRef{0, 0}, 0, nil)
			ctx.Send(ElemRef{0, 1}, 0, nil)
		},
		OnReduction: func(ctx *Ctx, a ArrayID, seq int64, v any) { ctx.ExitWith(v) },
		LB:          &LBConfig{Arrays: []ArrayID{0}, Strategy: bogusStrategy{}},
	}
	rt, err := NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) != 2 {
		t.Errorf("round did not complete: %v", v)
	}
	lb := rt.pes[0].lb
	if lb.Rounds() != 1 || lb.TotalMoves() != 0 {
		t.Errorf("rounds=%d moves=%d, want 1 round, 0 moves", lb.Rounds(), lb.TotalMoves())
	}
}

// TestLBAuditRejectsNonMigratable: enabling LB over an array whose
// elements lack a PUP method must fail at construction, naming the type.
func TestLBAuditRejectsNonMigratable(t *testing.T) {
	topo, err := topology.TwoClusters(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 2, New: func(int) Chare { return funcChare(func(*Ctx, EntryID, any) {}) }}},
		Start:  func(*Ctx) {},
		LB:     &LBConfig{Arrays: []ArrayID{0}, Strategy: bogusStrategy{}},
	}
	_, err = NewRuntime(topo, prog)
	if err == nil {
		t.Fatal("runtime accepted a load-balanced array of non-Migratable elements")
	}
	if !strings.Contains(err.Error(), "funcChare") || !strings.Contains(err.Error(), "Migratable") {
		t.Errorf("error %q does not name the offending type", err)
	}
}

// bogusStrategy plans only invalid or no-op moves.
type bogusStrategy struct{}

func (bogusStrategy) Plan(s *LBStats) []Move {
	var out []Move
	for _, e := range s.Elems {
		out = append(out, Move{Ref: e.Ref, ToPE: -5})     // out of range
		out = append(out, Move{Ref: e.Ref, ToPE: e.PE})   // no-op
		out = append(out, Move{Ref: e.Ref, ToPE: 10_000}) // out of range
	}
	return out
}

func TestLBMsgPayloadBytes(t *testing.T) {
	m := lbMsg{Stats: make([]ElemLoad, 3), Moves: make([]Move, 2)}
	if m.PayloadBytes() <= 32 {
		t.Errorf("payload bytes = %d", m.PayloadBytes())
	}
	// Serialized state and metadata must be part of the modeled size.
	with := lbMsg{State: make([]byte, 1000), Meta: &elemMeta{}}
	if with.PayloadBytes() < 1000+lbMetaBytes {
		t.Errorf("payload bytes %d ignores state", with.PayloadBytes())
	}
}

// TestLBMsgWireRoundTrip pushes every phase of the protocol through the
// wire codec under the runtime's own tag, and decoded messages must match
// the originals field for field.
func TestLBMsgWireRoundTrip(t *testing.T) {
	msgs := []lbMsg{
		{Phase: lbStats, Stats: []ElemLoad{
			{Ref: ElemRef{0, 3}, PE: 1, Load: 7 * time.Millisecond, Msgs: 12, WanMsgs: 5},
			{Ref: ElemRef{1, 0}, PE: 0, Load: time.Microsecond, Msgs: 1, WanMsgs: 0},
		}},
		{Phase: lbEvict, Moves: []Move{{Ref: ElemRef{0, 3}, ToPE: 2}, {Ref: ElemRef{1, 1}, ToPE: 0}}},
		{Phase: lbArrive, Elem: ElemRef{0, 3}, State: []byte{1, 2, 3, 4, 5},
			Meta: &elemMeta{redSeq: 9, load: 3 * time.Millisecond, wanMsg: 4, msgs: 17, atSync: true}},
		{Phase: lbAck},
		{Phase: lbResume, Moves: []Move{{Ref: ElemRef{0, 3}, ToPE: 2}}},
	}
	for _, in := range msgs {
		m := &Message{Kind: KindLB, SrcPE: 1, DstPE: 0, Bytes: in.PayloadBytes(), Data: in}
		wire, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("phase %d: %v", in.Phase, err)
		}
		if wire[msgHeaderLen-1] != tagLB {
			t.Fatalf("phase %d encoded with tag %d, want tagLB (%d)", in.Phase, wire[msgHeaderLen-1], tagLB)
		}
		out, err := DecodeMessage(wire)
		if err != nil {
			t.Fatalf("phase %d: %v", in.Phase, err)
		}
		got := out.Data.(lbMsg)
		if got.Phase != in.Phase || len(got.Stats) != len(in.Stats) || len(got.Moves) != len(in.Moves) || got.Elem != in.Elem {
			t.Fatalf("phase %d: decoded %+v != %+v", in.Phase, got, in)
		}
		for i := range in.Stats {
			if got.Stats[i] != in.Stats[i] {
				t.Errorf("stat %d: %+v != %+v", i, got.Stats[i], in.Stats[i])
			}
		}
		for i := range in.Moves {
			if got.Moves[i] != in.Moves[i] {
				t.Errorf("move %d: %+v != %+v", i, got.Moves[i], in.Moves[i])
			}
		}
		if string(got.State) != string(in.State) {
			t.Errorf("state: %v != %v", got.State, in.State)
		}
		if (got.Meta == nil) != (in.Meta == nil) {
			t.Fatalf("meta presence mismatch")
		}
		if in.Meta != nil && *got.Meta != *in.Meta {
			t.Errorf("meta: %+v != %+v", *got.Meta, *in.Meta)
		}
	}
}
