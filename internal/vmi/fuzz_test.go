package vmi

import (
	"bytes"
	"math"
	"testing"
)

// FuzzFrameDecode: DecodeBytes — the decoder the TCP reader runs — must
// never panic, must hand back exactly the bytes after the frame it
// accepted, and must round-trip whatever it accepts.
func FuzzFrameDecode(f *testing.F) {
	// Seed with a valid encoded frame and some mutations.
	seed := (&Frame{Src: 1, Dst: 2, Body: []byte("seed")}).AppendEncode(nil)
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Add(seed[:headerLen-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		rest, err := fr.DecodeBytes(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if n := fr.EncodedLen(); n > len(data) || !bytes.Equal(rest, data[n:]) {
			t.Fatalf("remainder is %d bytes, want data[%d:] of %d", len(rest), n, len(data))
		}
		// Anything accepted must re-encode and decode to the same frame.
		var fr2 Frame
		if _, err := fr2.DecodeBytes(fr.AppendEncode(nil)); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if fr2.Src != fr.Src || fr2.Dst != fr.Dst || !bytes.Equal(fr2.Body, fr.Body) {
			t.Fatal("round trip not stable")
		}
	})
}

// FuzzEpochFence: the epoch field of the reliability header — the fence
// that drops a dead node's stale traffic — must decode within its 24-bit
// range, survive an in-place restamp (what retransmission does after an
// epoch bump) without disturbing any other header field or the payload,
// and reject truncated headers. The fence comparison itself must agree
// with the restamped value.
func FuzzEpochFence(f *testing.F) {
	seed := func(h RelHeader, payload []byte, epoch uint32) {
		f.Add(append(AppendRelHeader(nil, h), payload...), epoch)
	}
	seed(RelHeader{Kind: relKindData, Epoch: 1, Seq: 5, Ack: 2, CRC: 0xBEEF}, []byte("fenced"), 2)
	seed(RelHeader{Kind: relKindData, Epoch: MaxEpoch, Seq: 1}, nil, 0)
	seed(RelHeader{Kind: relKindAck, Epoch: 3, Ack: 9}, nil, 3)
	seed(RelHeader{Kind: relKindData, Epoch: 0, Seq: 1}, []byte{0xFF}, MaxEpoch+1)
	f.Add([]byte{}, uint32(1))
	f.Add(AppendRelHeader(nil, RelHeader{Kind: relKindData, Epoch: 7})[:relHeaderLen-1], uint32(8))

	f.Fuzz(func(t *testing.T, data []byte, epoch uint32) {
		h, payload, err := DecodeRelHeader(data)
		if err != nil {
			return // rejection (including truncation) is fine; panics are not
		}
		if h.Epoch > MaxEpoch {
			t.Fatalf("decoded epoch %d exceeds the 24-bit field", h.Epoch)
		}
		// Restamp in place, as the retransmit path does after SetEpoch.
		buf := append(AppendRelHeader(nil, h), payload...)
		restampEpoch(buf, epoch&MaxEpoch)
		h2, p2, err := DecodeRelHeader(buf)
		if err != nil {
			t.Fatalf("re-decode after restamp failed: %v", err)
		}
		if want := epoch & MaxEpoch; h2.Epoch != want {
			t.Fatalf("restamped epoch = %d, want %d", h2.Epoch, want)
		}
		if h2.Kind != h.Kind || h2.Seq != h.Seq || h2.Ack != h.Ack {
			t.Fatalf("restamp disturbed the header: %+v vs %+v", h, h2)
		}
		// The CRC covers the epoch, so a restamp must refresh it to the
		// valid checksum of the new header — otherwise every restamped
		// retransmit would be rejected as corrupt.
		if h2.Epoch != h.Epoch && h2.CRC != relCRC(buf) {
			t.Fatalf("restamp left a stale CRC: %#x, want %#x", h2.CRC, relCRC(buf))
		}
		if !bytes.Equal(p2, payload) {
			t.Fatal("restamp disturbed the payload")
		}
		// The fence predicate must see exactly the restamped value: a
		// frame restamped to the current epoch is never stale.
		if h2.Epoch < epoch&MaxEpoch {
			t.Fatal("restamped frame would be fenced by its own epoch")
		}
	})
}

// FuzzReliableFrame: the reliability header codec must never panic, and
// whatever it accepts must decode to the same header and payload after
// re-encoding. Seeds cover both kinds and sequence/ack wraparound values.
func FuzzReliableFrame(f *testing.F) {
	seed := func(h RelHeader, payload []byte) {
		f.Add(append(AppendRelHeader(nil, h), payload...))
	}
	seed(RelHeader{Kind: relKindData, Seq: 1, Ack: 0, CRC: 0x1234}, []byte("payload"))
	seed(RelHeader{Kind: relKindAck, Ack: 42}, nil)
	seed(RelHeader{Kind: relKindData, Seq: math.MaxUint64, Ack: math.MaxUint64 - 1, CRC: math.MaxUint32}, []byte{0})
	seed(RelHeader{Kind: relKindAck, Seq: math.MaxUint64, Ack: math.MaxUint64}, bytes.Repeat([]byte{0xAA}, 64))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x52}, relHeaderLen))
	f.Add(AppendRelHeader(nil, RelHeader{Kind: relKindData, Seq: 7})[:relHeaderLen-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := DecodeRelHeader(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Re-encode and decode: the header and payload must be stable.
		// (Byte-level equality is not required — the reserved bytes are
		// not round-tripped.)
		re := append(AppendRelHeader(nil, h), payload...)
		h2, p2, err := DecodeRelHeader(re)
		if err != nil {
			t.Fatalf("re-decode of accepted header failed: %v", err)
		}
		if h2 != h {
			t.Fatalf("header round trip not stable: %+v vs %+v", h, h2)
		}
		if !bytes.Equal(p2, payload) {
			t.Fatal("payload round trip not stable")
		}
	})
}
