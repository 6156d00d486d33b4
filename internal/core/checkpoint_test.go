package core

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"gridmdo/internal/topology"
)

// counterChare is a minimal migratable chare for checkpoint tests. Its
// state restores through the PUP auto-restore path.
type counterChare struct{ n int64 }

func (c *counterChare) Recv(ctx *Ctx, entry EntryID, data any) {
	c.n++
	ctx.Contribute(float64(c.n), OpSum)
}

func (c *counterChare) PUP(p *PUP) { p.Int64(&c.n) }

func counterProgram(n int) *Program {
	return &Program{
		Arrays: []ArraySpec{{
			ID: 0, N: n,
			New: func(int) Chare { return &counterChare{} },
		}},
		Start: func(ctx *Ctx) {
			for i := 0; i < n; i++ {
				ctx.Send(ElemRef{0, i}, 0, nil)
			}
		},
		OnReduction: func(ctx *Ctx, a ArrayID, seq int64, v any) { ctx.ExitWith(v) },
	}
}

func TestRuntimeCheckpointRoundTrip(t *testing.T) {
	topo := mustTopo(t, 4, 0)
	rt, err := NewRuntime(topo, counterProgram(6))
	if err != nil {
		t.Fatal(err)
	}
	v, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) != 6 { // each of 6 counters at 1
		t.Fatalf("first run sum %v", v)
	}
	ck, err := rt.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	ck2, err := DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Restart on a different PE count; counters continue from 1 to 2.
	prog2 := counterProgram(6)
	if err := ck2.Install(prog2); err != nil {
		t.Fatal(err)
	}
	topo2, err := topology.Single(2)
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := NewRuntime(topo2, prog2)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := rt2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v2.(float64) != 12 { // each counter now at 2
		t.Errorf("restarted sum %v, want 12", v2)
	}
}

func TestCheckpointRequiresMigratable(t *testing.T) {
	topo := mustTopo(t, 2, 0)
	prog := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 1, New: func(int) Chare { return funcChare(func(ctx *Ctx, e EntryID, d any) { ctx.Exit() }) }}},
		Start:  func(ctx *Ctx) { ctx.Send(ElemRef{0, 0}, 0, nil) },
	}
	rt, err := NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Checkpoint(); err == nil {
		t.Error("non-migratable elements checkpointed")
	}
}

func TestCheckpointInstallValidation(t *testing.T) {
	ck := &Checkpoint{Arrays: []ArrayState{{ID: 0, N: 3}}}
	wrongSize := counterProgram(5)
	if err := ck.Install(wrongSize); err == nil {
		t.Error("size mismatch accepted")
	}
	// Elements restore through PUP; a chare type without it surfaces as
	// a construction error.
	hopeless := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 3, New: func(int) Chare { return funcChare(func(*Ctx, EntryID, any) {}) }}},
		Start:  func(*Ctx) {},
	}
	ckFull := &Checkpoint{Arrays: []ArrayState{{ID: 0, N: 3, Elems: []ElemState{
		{Index: 0}, {Index: 1}, {Index: 2},
	}}}}
	if err := ckFull.Install(hopeless); err != nil {
		t.Fatalf("install: %v", err)
	}
	if _, err := NewRuntime(mustTopo(t, 2, 0), hopeless); err == nil {
		t.Error("restore of non-PUPable elements constructed")
	}
	// Arrays absent from the checkpoint keep their constructors.
	extra := &Program{
		Arrays: []ArraySpec{
			{ID: 0, N: 3, New: func(int) Chare { return &counterChare{} }},
			{ID: 1, N: 2, New: func(int) Chare { return &counterChare{} }},
		},
		Start: func(*Ctx) {},
	}
	ck2 := &Checkpoint{Arrays: []ArrayState{{ID: 0, N: 3, Elems: []ElemState{
		{Index: 0, Data: make([]byte, 8)},
		{Index: 1, Data: make([]byte, 8)},
		{Index: 2, Data: make([]byte, 8)},
	}}}}
	if err := ck2.Install(extra); err != nil {
		t.Errorf("install with extra array failed: %v", err)
	}
	if _, err := DecodeCheckpoint(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage checkpoint decoded")
	}
}

func TestMergeCheckpoints(t *testing.T) {
	part := func(n int, idxs ...int) *Checkpoint {
		st := ArrayState{ID: 0, N: n}
		for _, i := range idxs {
			st.Elems = append(st.Elems, ElemState{Index: i, Data: []byte{byte(i)}})
		}
		return &Checkpoint{Arrays: []ArrayState{st}, Partial: true}
	}

	ck, err := MergeCheckpoints(part(4, 1, 3), part(4, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Partial {
		t.Error("merged checkpoint still marked partial")
	}
	if len(ck.Arrays) != 1 || len(ck.Arrays[0].Elems) != 4 {
		t.Fatalf("merged shape: %+v", ck)
	}
	for i, e := range ck.Arrays[0].Elems {
		if e.Index != i || e.Data[0] != byte(i) {
			t.Errorf("element %d merged as index %d data %v", i, e.Index, e.Data)
		}
	}

	if _, err := MergeCheckpoints(part(4, 0, 1), part(4, 1, 2)); err == nil {
		t.Error("duplicate element accepted")
	}
	if _, err := MergeCheckpoints(part(4, 0, 1), part(4, 2)); err == nil {
		t.Error("incomplete merge accepted")
	}
	if _, err := MergeCheckpoints(part(4, 0, 1), part(5, 2, 3)); err == nil {
		t.Error("conflicting array sizes accepted")
	}
	if _, err := MergeCheckpoints(); err == nil {
		t.Error("empty merge accepted")
	}

	// A partial checkpoint must not install.
	err = part(4, 0).Install(counterProgram(4))
	if err == nil || !strings.Contains(err.Error(), "partial") {
		t.Errorf("partial install: %v", err)
	}
}

func TestCtxAccessorsAndBroadcast(t *testing.T) {
	topo := mustTopo(t, 2, 0)
	var hits atomic.Int64
	prog := &Program{
		Arrays: []ArraySpec{{
			ID: 0, N: 4,
			New: func(i int) Chare {
				return funcChare(func(ctx *Ctx, e EntryID, d any) {
					n := hits.Add(1)
					if ctx.Elem() != (ElemRef{Array: 0, Index: i}) || d != "hello" {
						t.Errorf("element %d got %v with %v", i, ctx.Elem(), d)
					}
					ctx.Charge(0) // no-op on the real-time runtime
					if n == 4 {
						ctx.Exit()
					}
				})
			},
		}},
		Start: func(ctx *Ctx) { ctx.Broadcast(0, 0, "hello") },
	}
	rt, err := NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := rt.Run(); err != nil || v != nil {
		t.Fatalf("run: v=%v err=%v", v, err)
	}
	if hits.Load() != 4 {
		t.Errorf("broadcast reached %d elements", hits.Load())
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

// TestDecodeCheckpointRefusesOldFormats: a file written by the gob-era
// Encode (testdata/checkpoint_v1_gob.bin, produced at the last commit that
// had it) and a file of a future version are refused with an error that
// names the format version, and a truncated current file with a decode
// error; none of them panics.
func TestDecodeCheckpointRefusesOldFormats(t *testing.T) {
	old, err := os.ReadFile("testdata/checkpoint_v1_gob.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Errorf("gob-era checkpoint: %v, want a format version error", err)
	}
	ck := &Checkpoint{Partial: true, Arrays: []ArrayState{{ID: 2, N: 3, Elems: []ElemState{{Index: 1, Data: []byte{1, 2, 3}}}}}}
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	back, err := DecodeCheckpoint(bytes.NewReader(good))
	if err != nil || !reflect.DeepEqual(back, ck) {
		t.Fatalf("round trip: %+v, %v", back, err)
	}
	future := append([]byte(nil), good...)
	future[len(checkpointMagic)]++
	if _, err := DecodeCheckpoint(bytes.NewReader(future)); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Errorf("future-version checkpoint: %v, want a format version error", err)
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeCheckpoint(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("checkpoint truncated to %d of %d bytes decoded", cut, len(good))
		}
	}
}
