package vmi

import "testing"

// TestRelCRCAllocs pins the reliability CRC at zero allocations: sealing
// a data frame, verifying it and sealing an ack all read the header
// bytes already encoded in the body.
func TestRelCRCAllocs(t *testing.T) {
	data := append(AppendRelHeader(nil, RelHeader{Kind: relKindData, Epoch: 3, Seq: 9, Ack: 4}), make([]byte, 200)...)
	ack := AppendRelHeader(nil, RelHeader{Kind: relKindAck, Epoch: 3, Ack: 4})
	var ok bool
	if n := testing.AllocsPerRun(1000, func() {
		sealRel(data)
		sealRel(ack)
		h, _, _ := DecodeRelHeader(data)
		ok = relCRC(data) == h.CRC
	}); n != 0 {
		t.Errorf("seal and verify cost %v allocations, want 0", n)
	}
	if !ok {
		t.Error("a sealed frame failed its own CRC")
	}
}

// TestBufPoolAllocs pins the buffer pool's steady state at zero
// allocations per Get/Put cycle.
func TestBufPoolAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	PutBuf(GetBuf(300))
	if n := testing.AllocsPerRun(1000, func() { PutBuf(GetBuf(300)) }); n != 0 {
		t.Errorf("a Get/Put cycle costs %v allocations, want 0", n)
	}
}
