package vmi

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// feedFrames pushes n frames for each of the given flows through dev in
// the given interleaving order and returns, per flow, the sequence labels
// (carried in Obj) that came out the far end in order.
func feedFrames(t *testing.T, dev *FaultDevice, order [][2]int32, perFlowSeq map[[2]int32]*uint64) map[[2]int32][]uint64 {
	t.Helper()
	var mu sync.Mutex
	got := make(map[[2]int32][]uint64)
	sink := func(f *Frame) error {
		mu.Lock()
		k := [2]int32{f.Src, f.Dst}
		got[k] = append(got[k], f.Obj.(uint64))
		mu.Unlock()
		return nil
	}
	chain := BuildSendChain(sink, dev)
	for _, pair := range order {
		seq := perFlowSeq[pair]
		f := &Frame{Src: pair[0], Dst: pair[1], Obj: *seq, Body: []byte(fmt.Sprintf("payload-%d-%d-%d", pair[0], pair[1], *seq))}
		*seq++
		if err := chain(f); err != nil {
			t.Fatal(err)
		}
	}
	dev.Close()
	mu.Lock()
	defer mu.Unlock()
	return got
}

// TestFaultDeviceDeterministicPerSeed: same seed, same frame sequence ⇒
// identical fault event logs, outputs, and stats.
func TestFaultDeviceDeterministicPerSeed(t *testing.T) {
	plan := FaultPlan{Drop: 0.2, Duplicate: 0.15, Reorder: 0.2, Corrupt: 0.1}
	mkOrder := func() ([][2]int32, map[[2]int32]*uint64) {
		var order [][2]int32
		for i := 0; i < 300; i++ {
			order = append(order, [2]int32{int32(i % 3), 9})
		}
		seqs := map[[2]int32]*uint64{}
		for i := int32(0); i < 3; i++ {
			seqs[[2]int32{i, 9}] = new(uint64)
		}
		return order, seqs
	}

	d1 := NewFaultDevice(42, plan)
	d1.RecordLog()
	order1, seqs1 := mkOrder()
	out1 := feedFrames(t, d1, order1, seqs1)

	d2 := NewFaultDevice(42, plan)
	d2.RecordLog()
	order2, seqs2 := mkOrder()
	out2 := feedFrames(t, d2, order2, seqs2)

	if !reflect.DeepEqual(d1.Log(), d2.Log()) {
		t.Error("same seed produced different fault event sequences")
	}
	if d1.Stats() != d2.Stats() {
		t.Errorf("same seed produced different stats: %+v vs %+v", d1.Stats(), d2.Stats())
	}
	if !reflect.DeepEqual(out1, out2) {
		t.Error("same seed produced different delivery sequences")
	}
	if s := d1.Stats(); s.Dropped == 0 || s.Duplicated == 0 || s.Reordered == 0 || s.Corrupted == 0 {
		t.Errorf("expected every fault kind to fire at these rates: %+v", s)
	}

	d3 := NewFaultDevice(43, plan)
	d3.RecordLog()
	order3, seqs3 := mkOrder()
	feedFrames(t, d3, order3, seqs3)
	if reflect.DeepEqual(d1.Log(), d3.Log()) {
		t.Error("different seeds produced identical fault event sequences")
	}
}

// TestFaultDeviceFlowIndependence: a flow's fault decisions depend only on
// its own frame indices, not on how other flows interleave with it.
func TestFaultDeviceFlowIndependence(t *testing.T) {
	plan := FaultPlan{Drop: 0.3, Corrupt: 0.2}
	flowEvents := func(log []FaultEvent, src, dst int32) []FaultEvent {
		var out []FaultEvent
		for _, e := range log {
			if e.Src == src && e.Dst == dst {
				out = append(out, e)
			}
		}
		return out
	}

	// Interleaved: A,B,A,B,...; sequential: all A then all B.
	inter := NewFaultDevice(7, plan)
	inter.RecordLog()
	var orderI [][2]int32
	for i := 0; i < 100; i++ {
		orderI = append(orderI, [2]int32{1, 5}, [2]int32{2, 5})
	}
	feedFrames(t, inter, orderI, map[[2]int32]*uint64{{1, 5}: new(uint64), {2, 5}: new(uint64)})

	seqd := NewFaultDevice(7, plan)
	seqd.RecordLog()
	var orderS [][2]int32
	for i := 0; i < 100; i++ {
		orderS = append(orderS, [2]int32{1, 5})
	}
	for i := 0; i < 100; i++ {
		orderS = append(orderS, [2]int32{2, 5})
	}
	feedFrames(t, seqd, orderS, map[[2]int32]*uint64{{1, 5}: new(uint64), {2, 5}: new(uint64)})

	for _, flow := range [][2]int32{{1, 5}, {2, 5}} {
		if !reflect.DeepEqual(flowEvents(inter.Log(), flow[0], flow[1]), flowEvents(seqd.Log(), flow[0], flow[1])) {
			t.Errorf("flow %v decisions changed with interleaving", flow)
		}
	}
}

// TestFaultDeviceDropLosesExactlyTheDropped: delivered set = sent minus
// dropped, and nothing is delivered twice when only Drop is configured.
func TestFaultDeviceDropOnly(t *testing.T) {
	d := NewFaultDevice(11, FaultPlan{Drop: 0.25})
	order := make([][2]int32, 400)
	for i := range order {
		order[i] = [2]int32{0, 1}
	}
	out := feedFrames(t, d, order, map[[2]int32]*uint64{{0, 1}: new(uint64)})
	s := d.Stats()
	if s.Dropped == 0 {
		t.Fatal("no drops at rate 0.25 over 400 frames")
	}
	got := out[[2]int32{0, 1}]
	if int64(len(got))+s.Dropped != int64(len(order)) {
		t.Errorf("delivered %d + dropped %d != sent %d", len(got), s.Dropped, len(order))
	}
	seen := map[uint64]bool{}
	last := int64(-1)
	for _, seq := range got {
		if seen[seq] {
			t.Fatalf("seq %d delivered twice with only Drop configured", seq)
		}
		seen[seq] = true
		if int64(seq) < last {
			t.Fatalf("drop-only device reordered: %d after %d", seq, last)
		}
		last = int64(seq)
	}
}

// TestFaultDeviceDuplicate: duplicated frames arrive exactly twice.
func TestFaultDeviceDuplicate(t *testing.T) {
	d := NewFaultDevice(3, FaultPlan{Duplicate: 0.5})
	order := make([][2]int32, 200)
	for i := range order {
		order[i] = [2]int32{0, 1}
	}
	out := feedFrames(t, d, order, map[[2]int32]*uint64{{0, 1}: new(uint64)})
	s := d.Stats()
	got := out[[2]int32{0, 1}]
	if int64(len(got)) != int64(len(order))+s.Duplicated {
		t.Errorf("delivered %d, want %d sent + %d dups", len(got), len(order), s.Duplicated)
	}
}

// TestFaultDeviceReorder: held frames are released after ReorderSpan later
// frames, the delivered multiset is intact, and order actually changed.
func TestFaultDeviceReorder(t *testing.T) {
	d := NewFaultDevice(5, FaultPlan{Reorder: 0.3, ReorderSpan: 3})
	order := make([][2]int32, 300)
	for i := range order {
		order[i] = [2]int32{0, 1}
	}
	out := feedFrames(t, d, order, map[[2]int32]*uint64{{0, 1}: new(uint64)})
	got := out[[2]int32{0, 1}]
	if len(got) != len(order) {
		t.Fatalf("delivered %d frames, want %d", len(got), len(order))
	}
	seen := make(map[uint64]bool, len(got))
	inOrder := true
	for i, seq := range got {
		if seen[seq] {
			t.Fatalf("seq %d delivered twice", seq)
		}
		seen[seq] = true
		if uint64(i) != seq {
			inOrder = false
		}
	}
	if inOrder {
		t.Error("reorder device at rate 0.3 left 300 frames in order")
	}
	if d.Stats().Reordered == 0 {
		t.Error("no reorder events recorded")
	}
	if d.HeldFrames() != 0 {
		t.Errorf("device still holds %d frames after Close", d.HeldFrames())
	}
}

// TestFaultDeviceCloseReleasesHeld: a flow that stops sending leaves its
// held frames to Close, which must flush them.
func TestFaultDeviceCloseReleasesHeld(t *testing.T) {
	d := NewFaultDevice(1, FaultPlan{Reorder: 1, ReorderSpan: 100})
	var got []uint64
	chain := BuildSendChain(func(f *Frame) error { got = append(got, f.Obj.(uint64)); return nil }, d)
	for i := 0; i < 5; i++ {
		if err := chain(&Frame{Src: 0, Dst: 1, Obj: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 0 {
		t.Fatalf("frames escaped a hold-all plan: %v", got)
	}
	if d.HeldFrames() != 5 {
		t.Fatalf("HeldFrames = %d, want 5", d.HeldFrames())
	}
	d.Close()
	if len(got) != 5 {
		t.Errorf("Close released %d frames, want 5", len(got))
	}
	// Post-close frames pass through untouched.
	if err := chain(&Frame{Src: 0, Dst: 1, Obj: uint64(99)}); err != nil {
		t.Fatal(err)
	}
	if got[len(got)-1] != 99 {
		t.Error("post-close frame did not pass through")
	}
}

// TestFaultDeviceCorrupt: corrupted bodies differ from the original in
// exactly one bit.
func TestFaultDeviceCorrupt(t *testing.T) {
	d := NewFaultDevice(2, FaultPlan{Corrupt: 1})
	defer d.Close()
	orig := []byte("the quick brown fox jumps over the lazy dog")
	f := &Frame{Src: 0, Dst: 1, Body: append([]byte(nil), orig...)}
	var out *Frame
	if err := d.Send(f, func(g *Frame) error { out = g; return nil }); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range orig {
		if b := orig[i] ^ out.Body[i]; b != 0 {
			for ; b != 0; b &= b - 1 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Errorf("corruption flipped %d bits, want 1", diff)
	}
}

// TestFaultDeviceJitterDelays: jittered frames are cloned and arrive
// later; the caller's frame can be recycled immediately.
func TestFaultDeviceJitterDelays(t *testing.T) {
	d := NewFaultDevice(4, FaultPlan{JitterMax: 20 * time.Millisecond})
	defer d.Close()
	body := []byte("jittered payload")
	f := &Frame{Src: 0, Dst: 1, Body: append([]byte(nil), body...)}
	done := make(chan *Frame, 1)
	if err := d.Send(f, func(g *Frame) error { done <- g; return nil }); err != nil {
		t.Fatal(err)
	}
	// Scribble over the caller's body: the device must have cloned.
	for i := range f.Body {
		f.Body[i] = 0xFF
	}
	select {
	case g := <-done:
		if !bytes.Equal(g.Body, body) {
			t.Error("jittered frame aliased the caller's recycled body")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("jittered frame never delivered")
	}
}

// TestPartitionDeviceSeverHeal: severed links drop, healed links pass, and
// the affects predicate scopes the damage.
func TestPartitionDeviceSeverHeal(t *testing.T) {
	wan := NewPartitionDevice(func(src, dst int32) bool { return src < 2 != (dst < 2) })
	var got []uint64
	chain := BuildSendChain(func(f *Frame) error { got = append(got, f.Obj.(uint64)); return nil }, wan)

	send := func(src, dst int32, seq uint64) {
		t.Helper()
		if err := chain(&Frame{Src: src, Dst: dst, Obj: seq}); err != nil {
			t.Fatal(err)
		}
	}
	send(0, 3, 1) // cross, healed: passes
	wan.Sever()
	send(0, 3, 2) // cross, severed: dropped
	send(0, 1, 3) // local, severed: passes
	wan.Heal()
	send(0, 3, 4) // cross, healed again: passes

	want := []uint64{1, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
	if wan.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", wan.Dropped())
	}
}
