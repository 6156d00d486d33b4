package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCombineOps(t *testing.T) {
	if got := Combine(OpSum, 2.5, 3.5).(float64); got != 6.0 {
		t.Errorf("sum = %v", got)
	}
	if got := Combine(OpMax, 2.0, 9.0).(float64); got != 9 {
		t.Errorf("max = %v", got)
	}
	if got := Combine(OpMin, 4.0, 1.0).(float64); got != 1 {
		t.Errorf("min = %v", got)
	}
	v := Combine(OpSum, []float64{1, 2}, []float64{10, 20}).([]float64)
	if v[0] != 11 || v[1] != 22 {
		t.Errorf("vector sum = %v", v)
	}
}

func TestCombinePanicsOnMismatch(t *testing.T) {
	for _, fn := range []func(){
		func() { Combine(OpSum, []float64{1}, []float64{1, 2}) },
		func() { Combine(OpSum, "a", "b") },
		func() { Combine(OpSum, int64(1), int64(2)) }, // integers do not reduce
		func() { Combine(ReduceOp(99), 1.0, 2.0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: Combine with OpSum over a shuffled slice equals the direct sum
// (commutativity/associativity of the reduction tree). Small integers sum
// exactly in float64, so any order must agree bit for bit.
func TestCombineSumProperty(t *testing.T) {
	prop := func(vals []int8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var direct float64
		for _, v := range vals {
			direct += float64(v)
		}
		shuffled := append([]int8(nil), vals...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		acc := 0.0
		for _, v := range shuffled {
			acc = Combine(OpSum, acc, float64(v)).(float64)
		}
		return acc == direct
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// twoPEReduction wires two ReduceMgrs with a synchronous in-test "network"
// and drives a reduction over a 6-element array split 4/2.
func TestReduceMgrProtocol(t *testing.T) {
	locals := []int{4, 2}
	const total = 6
	var results []any
	var mgrs [2]*ReduceMgr
	emit := func(m *Message) {
		if m.Kind != KindReduce || m.DstPE != 0 {
			t.Fatalf("unexpected emit %v", m)
		}
		if err := mgrs[0].HandlePartial(m); err != nil {
			t.Fatal(err)
		}
	}
	for pe := range mgrs {
		pe := pe
		mgrs[pe] = NewReduceMgr(pe,
			func(ArrayID) int { return locals[pe] },
			func(ArrayID) int { return total },
			emit,
			func(a ArrayID, seq int64, v any) { results = append(results, v) },
		)
	}
	// Two pipelined rounds, contributions interleaved across PEs.
	for seq := int64(1); seq <= 2; seq++ {
		for i := 0; i < 4; i++ {
			mgrs[0].Contribute(0, seq, float64(i), OpSum)
		}
	}
	for seq := int64(1); seq <= 2; seq++ {
		for i := 0; i < 2; i++ {
			mgrs[1].Contribute(0, seq, 100.0, OpSum)
		}
	}
	if len(results) != 2 {
		t.Fatalf("completed %d rounds, want 2", len(results))
	}
	for _, r := range results {
		if r.(float64) != 206 { // 0+1+2+3 + 2*100
			t.Errorf("round result = %v, want 206", r)
		}
	}
	if len(mgrs[0].local) != 0 || len(mgrs[0].root) != 0 {
		t.Error("root manager leaked state")
	}
}

func TestReduceMgrOverflowDetected(t *testing.T) {
	mgr := NewReduceMgr(0,
		func(ArrayID) int { return 1 },
		func(ArrayID) int { return 1 },
		func(*Message) {},
		func(ArrayID, int64, any) {},
	)
	m := &Message{Kind: KindReduce, Data: ReducePartial{Array: 0, Seq: 1, Op: OpSum, Value: 1.0, Contribs: 2}}
	if err := mgr.HandlePartial(m); err == nil {
		t.Error("overflowing partial accepted")
	}
}

func TestReduceMgrBadPayload(t *testing.T) {
	mgr := NewReduceMgr(0, func(ArrayID) int { return 1 }, func(ArrayID) int { return 1 },
		func(*Message) {}, func(ArrayID, int64, any) {})
	if err := mgr.HandlePartial(&Message{Kind: KindReduce, Data: "junk"}); err == nil {
		t.Error("bad payload accepted")
	}
}

func TestLocationsMoveAndCounts(t *testing.T) {
	prog := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 8, New: func(int) Chare { return nil }}},
		Start:  func(*Ctx) {},
	}
	loc := NewLocations(prog, 4)
	for pe := 0; pe < 4; pe++ {
		if got := loc.LocalCount(0, pe); got != 2 {
			t.Fatalf("PE %d count = %d, want 2", pe, got)
		}
	}
	from, err := loc.Move(ElemRef{0, 0}, 3)
	if err != nil || from != 0 {
		t.Fatalf("move: from=%d err=%v", from, err)
	}
	if loc.PEOf(ElemRef{0, 0}) != 3 {
		t.Error("move did not take effect")
	}
	if loc.LocalCount(0, 0) != 1 || loc.LocalCount(0, 3) != 3 {
		t.Error("counts not updated")
	}
	// Move the second element off PE 0: PE 0 owns none of the array.
	if _, err := loc.Move(ElemRef{0, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if loc.LocalCount(0, 0) != 0 {
		t.Errorf("PE 0 count = %d, want 0", loc.LocalCount(0, 0))
	}
	if _, err := loc.Move(ElemRef{0, 99}, 1); err == nil {
		t.Error("move of unknown element accepted")
	}
	elems := loc.ElementsOn(0, 2)
	if len(elems) != 3 {
		t.Errorf("ElementsOn(2) = %v", elems)
	}
}

func TestProgramValidate(t *testing.T) {
	ok := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 1, New: func(int) Chare { return nil }}},
		Start:  func(*Ctx) {},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
	bad := []*Program{
		{},
		{Start: func(*Ctx) {}},
		{Start: func(*Ctx) {}, Arrays: []ArraySpec{{ID: 1, N: 1, New: func(int) Chare { return nil }}}},
		{Start: func(*Ctx) {}, Arrays: []ArraySpec{{ID: 0, N: 0, New: func(int) Chare { return nil }}}},
		{Start: func(*Ctx) {}, Arrays: []ArraySpec{{ID: 0, N: 1}}},
		{Start: func(*Ctx) {}, Arrays: []ArraySpec{{ID: 0, N: 1, New: func(int) Chare { return nil }}},
			LB: &LBConfig{}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad program %d accepted", i)
		}
	}
}

// Property: DecodeMessage never panics on arbitrary bytes — it either
// decodes or errors.
func TestDecodeMessageNeverPanics(t *testing.T) {
	prop := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = DecodeMessage(b)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

type testPayload struct{ A, B int }

func (v *testPayload) PUP(p *PUP) {
	p.Int(&v.A)
	p.Int(&v.B)
}

func init() { RegisterPayload[testPayload](201) }

func TestMessageCodecRoundTrip(t *testing.T) {
	in := &Message{
		Kind: KindApp, To: ElemRef{Array: 1, Index: 42}, Entry: 3,
		Prio: -2, Bytes: 1024, SrcPE: 5, DstPE: 9,
		Data: testPayload{A: 7, B: 8},
	}
	b, err := AppendMessage(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.To != in.To || out.Entry != in.Entry ||
		out.SrcPE != in.SrcPE || out.DstPE != in.DstPE {
		t.Errorf("header mismatch: %+v", out)
	}
	if out.Bytes != 0 || out.Prio != 0 {
		t.Errorf("modeled size %d or priority %d crossed the wire", out.Bytes, out.Prio)
	}
	if p, ok := out.Data.(testPayload); !ok || p != (testPayload{7, 8}) {
		t.Errorf("payload mismatch: %#v", out.Data)
	}
	// A nil payload is the tag byte alone, the header's last: 45 bytes.
	if b, err := AppendMessage(nil, &Message{Kind: KindApp, Bytes: 1024}); err != nil || len(b) != 45 {
		t.Errorf("nil-payload message encodes to %d bytes (err %v), want 45", len(b), err)
	}
	if _, err := DecodeMessage([]byte("garbage")); err == nil {
		t.Error("garbage decoded")
	}
}

func TestReduceOpStrings(t *testing.T) {
	for _, op := range []ReduceOp{OpSum, OpMax, OpMin, ReduceOp(77)} {
		if op.String() == "" {
			t.Errorf("empty string for op %d", op)
		}
	}
}

func TestCombineMaxMinFloat(t *testing.T) {
	if Combine(OpMax, 1.0, 2.0).(float64) != 2.0 {
		t.Error("max wrong")
	}
	if Combine(OpMin, 1.0, 2.0).(float64) != 1.0 {
		t.Error("min wrong")
	}
	if Combine(OpMax, 5.0, 3.0).(float64) != 5.0 {
		t.Error("max order wrong")
	}
	if Combine(OpMin, 5.0, 3.0).(float64) != 3.0 {
		t.Error("min order wrong")
	}
}
