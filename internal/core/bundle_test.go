package core

import "testing"

func TestBundleEligibility(t *testing.T) {
	cases := []struct {
		m    Message
		want bool
	}{
		{Message{Kind: KindApp, Prio: 0, SrcPE: 0, DstPE: 1}, true},
		{Message{Kind: KindApp, Prio: -1, SrcPE: 0, DstPE: 1}, false}, // prioritized
		{Message{Kind: KindApp, Prio: 0, SrcPE: 2, DstPE: 2}, false},  // self
		{Message{Kind: KindReduce, Prio: 0, SrcPE: 0, DstPE: 1}, false},
		{Message{Kind: KindQD, Prio: 0, SrcPE: 0, DstPE: 1}, false},
	}
	for i, c := range cases {
		if got := BundleEligible(&c.m); got != c.want {
			t.Errorf("case %d: eligible = %v, want %v", i, got, c.want)
		}
	}
}

func TestPendingBundlesDrainOrder(t *testing.T) {
	p := NewPendingBundles()
	if !p.Empty() {
		t.Fatal("new accumulator not empty")
	}
	for _, dst := range []int32{5, 2, 5, 9, 2, 2} {
		p.Add(&Message{Kind: KindApp, DstPE: dst, Bytes: 10})
	}
	if p.Empty() || !p.Has(5) || p.Has(7) {
		t.Fatal("accumulator state wrong")
	}
	groups := p.Drain()
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	// Ascending destination order, FIFO within a group.
	wantDst := []int32{2, 5, 9}
	wantLen := []int{3, 2, 1}
	for i, g := range groups {
		if g[0].DstPE != wantDst[i] || len(g) != wantLen[i] {
			t.Errorf("group %d: dst=%d len=%d", i, g[0].DstPE, len(g))
		}
	}
	if !p.Empty() {
		t.Error("drain did not reset")
	}
	if p.Drain() != nil {
		t.Error("drain of empty accumulator returned groups")
	}
}

func TestMakeBundle(t *testing.T) {
	single := []*Message{{Kind: KindApp, SrcPE: 1, DstPE: 2, Bytes: 100}}
	if got := MakeBundle(single); got != single[0] {
		t.Error("singleton group should pass through unchanged")
	}
	group := []*Message{
		{Kind: KindApp, SrcPE: 1, DstPE: 2, Bytes: 100},
		{Kind: KindApp, SrcPE: 1, DstPE: 2, Bytes: 50},
	}
	b := MakeBundle(group)
	if b.Kind != KindBundle || b.SrcPE != 1 || b.DstPE != 2 {
		t.Errorf("bundle header wrong: %+v", b)
	}
	if b.Bytes != 100+50+2*bundleHeaderBytes {
		t.Errorf("bundle bytes = %d", b.Bytes)
	}
	subs := BundleMessages(b)
	if len(subs) != 2 || subs[0].Bytes != 100 {
		t.Errorf("bundle contents wrong: %v", subs)
	}
}

// TestBundleOverTCP exercises the wire codec for bundled frames between
// process-separated runtimes.
func TestBundleOverTCP(t *testing.T) {
	in := MakeBundle([]*Message{
		{Kind: KindApp, To: ElemRef{0, 1}, SrcPE: 0, DstPE: 1, Data: "a", Bytes: 10},
		{Kind: KindApp, To: ElemRef{0, 2}, SrcPE: 0, DstPE: 1, Data: "b", Bytes: 20},
	})
	enc, err := EncodeMessage(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != KindBundle {
		t.Fatalf("kind = %d", out.Kind)
	}
	subs := BundleMessages(out)
	if len(subs) != 2 || subs[0].Data != "a" || subs[1].Data != "b" {
		t.Errorf("decoded bundle contents: %v", subs)
	}
}
