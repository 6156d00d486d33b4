package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestWireCodecPayloadKinds round-trips one message per payload kind the
// runtime itself sends and checks the payload survives with its concrete
// type.
func TestWireCodecPayloadKinds(t *testing.T) {
	cases := []struct {
		name string
		data any
	}{
		{"nil", nil},
		{"int", -42},
		{"int64", int64(1) << 40},
		{"float64", 3.14159},
		{"float64-special", math.Inf(-1)},
		{"f64slice", []float64{1, -2.5, math.MaxFloat64}},
		{"f64slice-empty", []float64{}},
		{"string", "ghost row"},
		{"bytes", []byte{0, 1, 2, 255}},
		{"bool", true},
		{"reduce", ReducePartial{Array: 3, Seq: 17, Op: OpMax, Value: 2.25, Contribs: 9}},
		{"reduce-nested-slice", ReducePartial{Array: 1, Seq: 2, Op: OpSum, Value: []float64{9, 8}, Contribs: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := &Message{
				Kind: KindApp, To: ElemRef{Array: 2, Index: 1 << 33}, Entry: -1,
				Prio: -5, Bytes: 4096, SrcPE: 11, DstPE: 13, Data: tc.data,
				ID: uint64(1)<<48 | 99, Parent: uint64(1)<<48 | 42,
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
			if out.ID != in.ID || out.Parent != in.Parent {
				t.Errorf("trace context lost: ID %#x Parent %#x", out.ID, out.Parent)
			}
			if !reflect.DeepEqual(out.Data, tc.data) {
				t.Errorf("payload: got %#v (%T), want %#v (%T)", out.Data, out.Data, tc.data, tc.data)
			}
		})
	}
}

// TestWireCodecBundleRecursion checks that bundle payloads encode their
// sub-messages recursively, headers included.
func TestWireCodecBundleRecursion(t *testing.T) {
	in := MakeBundle([]*Message{
		{Kind: KindApp, To: ElemRef{0, 1}, Entry: 2, SrcPE: 0, DstPE: 1, Data: []float64{1, 2, 3}, Bytes: 24},
		{Kind: KindApp, To: ElemRef{0, 2}, Entry: 3, SrcPE: 0, DstPE: 1, Data: "hello", Bytes: 5},
		{Kind: KindApp, To: ElemRef{0, 3}, Entry: 4, SrcPE: 0, DstPE: 1, Data: nil, Bytes: 0},
	})
	b, err := AppendMessage(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	subs := out.Data.([]*Message)
	if len(subs) != 3 {
		t.Fatalf("decoded %d sub-messages", len(subs))
	}
	if !reflect.DeepEqual(subs[0].Data, []float64{1, 2, 3}) || subs[1].Data != "hello" || subs[2].Data != nil {
		t.Errorf("bundle payloads corrupted: %v", subs)
	}
	if subs[1].To != (ElemRef{0, 2}) || subs[1].Entry != 3 {
		t.Errorf("sub-message header lost: %+v", subs[1])
	}
}

// TestWireCodecDecodeDoesNotAlias: decoded reference payloads must be
// fresh copies, because the transport recycles the input buffer.
func TestWireCodecDecodeDoesNotAlias(t *testing.T) {
	in := &Message{Kind: KindApp, Data: []byte("aliased?"), Bytes: 8}
	b, err := AppendMessage(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xEE
	}
	if got := out.Data.([]byte); !bytes.Equal(got, []byte("aliased?")) {
		t.Errorf("decoded payload aliases the wire buffer: %q", got)
	}
}

// TestWireCodecAppendMessage: AppendMessage must extend dst in place
// (given capacity) and append the same bytes it writes into a nil slice.
func TestWireCodecAppendMessage(t *testing.T) {
	m := &Message{Kind: KindReduce, Data: ReducePartial{Array: 1, Seq: 5, Op: OpMin, Value: int64(8), Contribs: 2}}
	plain, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 512)
	appended, err := AppendMessage(buf, m)
	if err != nil {
		t.Fatal(err)
	}
	if &appended[0] != &buf[:1][0] {
		t.Error("AppendMessage reallocated despite sufficient capacity")
	}
	if !bytes.Equal(appended, plain) {
		t.Error("AppendMessage into a buffer and into nil disagree")
	}
}

// unregisteredPayload has a PUP method but no registration.
type unregisteredPayload struct {
	Name  string
	Count int64
}

func (u *unregisteredPayload) PUP(p *PUP) {
	p.String(&u.Name)
	p.Varint(&u.Count)
}

// TestWireCodecUnregisteredType: there is no self-describing fallback. A
// payload type nobody registered is an encode error that names the type,
// at the top level and nested under a registered one.
func TestWireCodecUnregisteredType(t *testing.T) {
	for _, data := range []any{
		unregisteredPayload{Name: "x", Count: 3},
		ReducePartial{Op: OpSum, Value: unregisteredPayload{}},
		[]*Message{{Kind: KindApp, Data: &unregisteredPayload{}}},
	} {
		buf := make([]byte, 0, 256)
		out, err := AppendMessage(buf, &Message{Kind: KindApp, Data: data})
		if err == nil || !strings.Contains(err.Error(), "unregisteredPayload") || !strings.Contains(err.Error(), "not registered") {
			t.Errorf("%T: err = %v, want one naming core.unregisteredPayload as not registered", data, err)
		}
		if out != nil {
			t.Errorf("%T: failed encode returned %d bytes", data, len(out))
		}
	}
}

// appPayload is an application payload registered in the application tag
// range. Registration lives in an init so repeated test runs in one
// process (-count=N) don't trip the duplicate-tag panic.
type appPayload struct {
	N    byte
	Vals []float64
}

func (a *appPayload) PUP(p *PUP) {
	PUPUvarint(p, &a.N)
	p.Float64s(&a.Vals)
}

func init() { RegisterPayload[appPayload](200) }

// TestRegisterPayload: a registered type travels under its tag in both
// directions and arrives as the value type; reserved tags, a tag taken
// twice and a type registered twice all panic at registration.
func TestRegisterPayload(t *testing.T) {
	in := &Message{Kind: KindApp, Data: appPayload{N: 77, Vals: []float64{1.5, -2}}}
	b, err := AppendMessage(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if b[msgHeaderLen-1] != 200 {
		t.Errorf("registered tag not used: tag %d", b[msgHeaderLen-1])
	}
	out, err := DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Data, in.Data) {
		t.Errorf("registered payload: %#v", out.Data)
	}
	mustPanic := func(what string, register func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted", what)
			}
		}()
		register()
	}
	for _, tag := range []byte{0, 10, 63} {
		mustPanic(fmt.Sprintf("reserved tag %d", tag), func() { RegisterPayload[unregisteredPayload](tag) })
	}
	mustPanic("tag 200 a second time", func() { RegisterPayload[unregisteredPayload](200) })
	mustPanic("appPayload a second time", func() { RegisterPayload[appPayload](250) })
	if _, err := AppendMessage(nil, &Message{Data: unregisteredPayload{}}); err == nil {
		t.Error("a refused registration still took effect")
	}
}

// FuzzTraceWire targets the extended trace-context header: the causal ID and
// Parent fields must survive the wire byte-for-byte (including node-seeded
// high bits), sit at their fixed offsets, and version-1 frames must be
// rejected rather than misparsed as trace bytes.
func FuzzTraceWire(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1)<<48|1, uint64(1)<<48) // node-seeded IDs (node 1)
	f.Add(uint64(0xFFFF)<<48|42, uint64(7)<<48|9)
	f.Add(^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, id, parent uint64) {
		in := &Message{
			Kind: KindApp, To: ElemRef{Array: 1, Index: 2}, SrcPE: 3, DstPE: 4,
			ID: id, Parent: parent, Data: "x",
		}
		enc, err := AppendMessage(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint64(enc[28:]); got != id {
			t.Fatalf("ID not at offset 28: got %#x, want %#x", got, id)
		}
		if got := binary.BigEndian.Uint64(enc[36:]); got != parent {
			t.Fatalf("Parent not at offset 36: got %#x, want %#x", got, parent)
		}
		out, err := DecodeMessage(enc)
		if err != nil {
			t.Fatal(err)
		}
		if out.ID != id || out.Parent != parent {
			t.Fatalf("trace context mismatch: ID %#x want %#x, Parent %#x want %#x",
				out.ID, id, out.Parent, parent)
		}
		enc2, err := AppendMessage(nil, out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("trace header not byte-stable")
		}
		// A version-1 frame (the pre-trace 41-byte header) must be rejected.
		old := append([]byte(nil), enc...)
		old[2] = 1
		if _, err := DecodeMessage(old); err == nil {
			t.Fatal("version-1 frame accepted")
		}
	})
}

// TestWireRefusesVersion4: a version-4 message, whose 49-byte header still
// carried a 4-byte priority after Entry, is refused rather than misparsed.
func TestWireRefusesVersion4(t *testing.T) {
	v4 := binary.BigEndian.AppendUint16(nil, wireMagic)
	v4 = append(v4, 4, byte(KindApp))
	v4 = binary.BigEndian.AppendUint32(v4, 1)       // To.Array
	v4 = binary.BigEndian.AppendUint64(v4, 2)       // To.Index
	v4 = binary.BigEndian.AppendUint32(v4, 3)       // Entry
	v4 = binary.BigEndian.AppendUint32(v4, 0)       // Prio
	v4 = binary.BigEndian.AppendUint32(v4, 0)       // SrcPE
	v4 = binary.BigEndian.AppendUint32(v4, 1)       // DstPE
	v4 = binary.BigEndian.AppendUint64(v4, 1<<48|7) // ID
	v4 = binary.BigEndian.AppendUint64(v4, 1<<48|6) // Parent
	v4 = append(v4, tagNil)
	if len(v4) != 49 {
		t.Fatalf("version-4 message is %d bytes, want 49", len(v4))
	}
	if m, err := DecodeMessage(v4); !errors.Is(err, ErrBadWire) {
		t.Fatalf("version-4 message: got %v, %v; want ErrBadWire", m, err)
	}
}

// TestWireRefusesVersion5: a version-5 message, which predates
// KindMulticast and its member list, is refused rather than read by a
// decoder that would take kind 8 for a multicast.
func TestWireRefusesVersion5(t *testing.T) {
	v5 := binary.BigEndian.AppendUint16(nil, wireMagic)
	v5 = append(v5, 5, byte(KindApp))
	v5 = binary.BigEndian.AppendUint32(v5, 1)       // To.Array
	v5 = binary.BigEndian.AppendUint64(v5, 2)       // To.Index
	v5 = binary.BigEndian.AppendUint32(v5, 3)       // Entry
	v5 = binary.BigEndian.AppendUint32(v5, 0)       // SrcPE
	v5 = binary.BigEndian.AppendUint32(v5, 1)       // DstPE
	v5 = binary.BigEndian.AppendUint64(v5, 1<<48|7) // ID
	v5 = binary.BigEndian.AppendUint64(v5, 1<<48|6) // Parent
	v5 = append(v5, tagNil)
	if len(v5) != msgHeaderLen {
		t.Fatalf("version-5 message is %d bytes, want %d", len(v5), msgHeaderLen)
	}
	if m, err := DecodeMessage(v5); !errors.Is(err, ErrBadWire) {
		t.Fatalf("version-5 message: got %v, %v; want ErrBadWire", m, err)
	}
}

// TestWireCodecMulticast round-trips a multicast message, and refuses a
// member count its bytes cannot hold without growing the member list.
func TestWireCodecMulticast(t *testing.T) {
	in := &Message{Kind: KindMulticast, Entry: 4, SrcPE: 2, DstPE: 5, Parent: 1<<48 | 3,
		Data: &mcastBody{Data: []float64{1.5, -2}, Members: []mcastMember{
			{Ref: ElemRef{Array: 1, Index: 7}, ID: 1<<48 | 10},
			{Ref: ElemRef{Array: 1, Index: 1 << 33}, ID: 1<<48 | 11},
		}}}
	b, err := AppendMessage(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if want := msgHeaderLen + 4 + 2*mcastMemberLen + 1 + 4 + 16; len(b) != want {
		t.Errorf("multicast encodes in %d bytes, want %d", len(b), want)
	}
	out, err := DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != KindMulticast || out.Entry != 4 || out.SrcPE != 2 || out.DstPE != 5 || out.Parent != in.Parent {
		t.Errorf("header mismatch: %+v", out)
	}
	if !reflect.DeepEqual(out.Data, in.Data) {
		t.Errorf("payload: got %+v, want %+v", out.Data, in.Data)
	}
	// A count of 2^32−1 with one member's bytes behind it.
	huge := append([]byte(nil), b[:msgHeaderLen+4+mcastMemberLen]...)
	binary.BigEndian.PutUint32(huge[msgHeaderLen:], math.MaxUint32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		if _, err := DecodeMessage(huge); !errors.Is(err, ErrBadWire) {
			t.Fatalf("count beyond the bytes: err = %v, want ErrBadWire", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 10; per > 1024 {
		t.Errorf("refusing a bad count allocated %d bytes, want only the error's", per)
	}
	for n := msgHeaderLen; n < len(b); n++ {
		if _, err := DecodeMessage(b[:n]); !errors.Is(err, ErrBadWire) {
			t.Fatalf("multicast cut to %d bytes: err = %v, want ErrBadWire", n, err)
		}
	}
}
