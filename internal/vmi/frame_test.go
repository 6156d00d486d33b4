package vmi

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	in := &Frame{Src: 3, Dst: 17, Body: []byte("hello, grid")}
	buf := in.AppendEncode(nil)
	if len(buf) != in.EncodedLen() {
		t.Errorf("EncodedLen = %d, wrote %d", in.EncodedLen(), len(buf))
	}
	var out Frame
	rest, err := out.DecodeBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("%d bytes left after one frame", len(rest))
	}
	in.Obj = nil
	if !reflect.DeepEqual(*in, out) {
		t.Errorf("round trip mismatch:\n in=%+v\nout=%+v", *in, out)
	}
}

// An empty frame is its header alone: magic, Src, Dst and body length.
func TestFrameRoundTripEmptyBody(t *testing.T) {
	in := &Frame{Src: 1, Dst: 2}
	if n := in.EncodedLen(); n != 16 {
		t.Errorf("empty frame EncodedLen = %d, want 16", n)
	}
	var out Frame
	if _, err := out.DecodeBytes(in.AppendEncode(nil)); err != nil {
		t.Fatal(err)
	}
	if out.Body != nil {
		t.Errorf("empty body decoded as %v", out.Body)
	}
	if out.Src != 1 || out.Dst != 2 {
		t.Errorf("header mismatch: %+v", out)
	}
}

// Property: encode/decode is the identity on header fields and body for
// arbitrary frames.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(src, dst int32, body []byte) bool {
		in := &Frame{Src: src, Dst: dst, Body: body}
		var out Frame
		if rest, err := out.DecodeBytes(in.AppendEncode(nil)); err != nil || len(rest) != 0 {
			return false
		}
		if len(body) == 0 {
			// nil and empty both decode to nil
			return out.Src == src && out.Dst == dst && out.Body == nil
		}
		in.Obj = nil
		return reflect.DeepEqual(*in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	var out Frame
	buf := bytes.Repeat([]byte{0xAB}, headerLen)
	if _, err := out.DecodeBytes(buf); err != ErrBadMagic {
		t.Errorf("got %v, want ErrBadMagic", err)
	}
}

func TestDecodeOversizedBody(t *testing.T) {
	b := (&Frame{Src: 1, Dst: 2, Body: []byte("x")}).AppendEncode(nil)
	// Corrupt the length field to something enormous.
	b[12], b[13], b[14], b[15] = 0xFF, 0xFF, 0xFF, 0xFF
	var out Frame
	if _, err := out.DecodeBytes(b); err != ErrFrameTooLarge {
		t.Errorf("got %v, want ErrFrameTooLarge", err)
	}
}

// Every strict prefix of a frame — a short header or a short body — is
// incomplete, not an error of any other kind.
func TestDecodeTruncated(t *testing.T) {
	b := (&Frame{Src: 1, Dst: 2, Body: []byte("body")}).AppendEncode(nil)
	for n := 0; n < len(b); n++ {
		var out Frame
		if _, err := out.DecodeBytes(b[:n]); err != io.ErrUnexpectedEOF {
			t.Fatalf("prefix of %d/%d bytes: got %v, want io.ErrUnexpectedEOF", n, len(b), err)
		}
	}
}

func TestFrameClone(t *testing.T) {
	in := &Frame{Src: 1, Dst: 2, Body: []byte{1, 2, 3}}
	c := in.Clone()
	c.Body[0] = 99
	if in.Body[0] != 1 {
		t.Error("Clone shares body storage")
	}
}
