package core

import "testing"

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
	subs := b.Data.([]*Message)
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
	enc, err := AppendMessage(nil, in)
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
	subs := out.Data.([]*Message)
	if len(subs) != 2 || subs[0].Data != "a" || subs[1].Data != "b" {
		t.Errorf("decoded bundle contents: %v", subs)
	}
}
