// Package vmi is a Go rendition of the Virtual Machine Interface message
// layer the paper builds on: a low-level frame transport whose behavior is
// composed from chains of devices. A device may deliver a frame, hold it
// for a configured time (the "delay device" used to inject artificial
// wide-area latencies), sequence and acknowledge it (Reliable), or simply
// pass it to the next device in the chain.
//
// Frames carry either an in-process payload (Obj) — used when source and
// destination PEs share an address space, avoiding serialization — or a
// serialized Body, required by devices that touch bytes (TCP, Reliable).
package vmi

import (
	"encoding/binary"
	"errors"
	"io"
)

// Frame is the unit VMI devices operate on. The frame header carries
// routing only: the transport owns Src and Dst, and everything the
// scheduler orders or traces by (priority, causal IDs, modeled size)
// lives in the message header core encodes into Body.
type Frame struct {
	// Src and Dst are the source and destination PE; a negative Dst is a
	// Control* code (tcp.go).
	Src, Dst int32

	// Body is the serialized payload; required for byte-level devices.
	Body []byte
	// Obj is the in-process payload; valid only within one address space.
	Obj any
}

// Frame header layout (big-endian):
//
//	off len field
//	  0   4  magic 0x564D4932 ("VMI2")
//	  4   4  Src (int32)
//	  8   4  Dst (int32)
//	 12   4  body length (uint32)
//
// A peer speaking the 40-byte "VMI1" header is refused at hello.
const (
	frameMagic   = 0x564d4932 // "VMI2"
	headerLen    = 16
	maxFrameBody = 64 << 20 // defensive cap for decoding
)

// ErrFrameTooLarge is returned when decoding a frame whose declared body
// length exceeds the defensive cap.
var ErrFrameTooLarge = errors.New("vmi: frame body exceeds limit")

// ErrBadMagic is returned when a decoded header does not start with the
// VMI frame magic.
var ErrBadMagic = errors.New("vmi: bad frame magic")

// EncodedLen reports the number of bytes AppendEncode will append.
func (f *Frame) EncodedLen() int { return headerLen + len(f.Body) }

// AppendEncode appends the frame's wire encoding (header and body) to dst
// and returns the extended slice — the one encoder, used by the TCP write
// coalescer. Obj is not serialized; callers that need wire transport must
// populate Body first.
func (f *Frame) AppendEncode(dst []byte) []byte {
	var h [headerLen]byte
	binary.BigEndian.PutUint32(h[0:], frameMagic)
	binary.BigEndian.PutUint32(h[4:], uint32(f.Src))
	binary.BigEndian.PutUint32(h[8:], uint32(f.Dst))
	binary.BigEndian.PutUint32(h[12:], uint32(len(f.Body)))
	dst = append(dst, h[:]...)
	return append(dst, f.Body...)
}

// DecodeBytes parses one frame from the front of b, replacing f's fields,
// and returns the remainder of b. Body aliases b — no copy is made — so
// the frame is only valid while the caller keeps b intact; retainers must
// Clone. An incomplete frame returns io.ErrUnexpectedEOF.
func (f *Frame) DecodeBytes(b []byte) ([]byte, error) {
	if len(b) < headerLen {
		return b, io.ErrUnexpectedEOF
	}
	if binary.BigEndian.Uint32(b[0:]) != frameMagic {
		return b, ErrBadMagic
	}
	n := binary.BigEndian.Uint32(b[12:])
	if n > maxFrameBody {
		return b, ErrFrameTooLarge
	}
	if uint32(len(b)-headerLen) < n {
		return b, io.ErrUnexpectedEOF
	}
	f.Src = int32(binary.BigEndian.Uint32(b[4:]))
	f.Dst = int32(binary.BigEndian.Uint32(b[8:]))
	f.Obj = nil
	if n == 0 {
		f.Body = nil
	} else {
		f.Body = b[headerLen : headerLen+int(n) : headerLen+int(n)]
	}
	return b[headerLen+int(n):], nil
}

// frameReader decodes a stream of frames with block reads and zero-copy
// bodies: it fills a single reusable buffer with as many bytes as each
// Read returns and parses frames out of it in place. A decoded frame's
// Body aliases the buffer and is valid only until the next Next call;
// consumers that retain bodies must copy (Frame.Clone does).
type frameReader struct {
	r        io.Reader
	buf      []byte
	pos, end int
}

// frameReaderBufSize is the initial block size; it grows (to at most the
// frame body cap) when a larger frame arrives.
const frameReaderBufSize = 64 << 10

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: r, buf: GetBuf(frameReaderBufSize)}
}

// release returns the reader's block buffer to the pool. No frame decoded
// by this reader may be referenced afterwards.
func (fr *frameReader) release() {
	PutBuf(fr.buf)
	fr.buf = nil
}

// fill ensures at least need unparsed bytes are buffered, compacting and
// growing the block as required. It reports io.EOF only at a clean frame
// boundary (no partial data), so a closed connection ends the stream
// cleanly.
func (fr *frameReader) fill(need int) error {
	if fr.pos > 0 {
		copy(fr.buf, fr.buf[fr.pos:fr.end])
		fr.end -= fr.pos
		fr.pos = 0
	}
	if need > len(fr.buf) {
		grown := GetBuf(need)
		copy(grown, fr.buf[:fr.end])
		PutBuf(fr.buf)
		fr.buf = grown
	}
	for fr.end < need {
		n, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += n
		if err != nil {
			if fr.end >= need {
				return nil
			}
			if err == io.EOF && fr.end > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Next decodes the next frame from the stream into f. The frame's Body is
// only valid until the following Next (or release) call.
func (fr *frameReader) Next(f *Frame) error {
	if fr.end-fr.pos < headerLen {
		if err := fr.fill(headerLen); err != nil {
			return err
		}
	}
	h := fr.buf[fr.pos:]
	if binary.BigEndian.Uint32(h[0:]) != frameMagic {
		return ErrBadMagic
	}
	n := binary.BigEndian.Uint32(h[12:])
	if n > maxFrameBody {
		return ErrFrameTooLarge
	}
	total := headerLen + int(n)
	if fr.end-fr.pos < total {
		if err := fr.fill(total); err != nil {
			return err
		}
	}
	rest, err := f.DecodeBytes(fr.buf[fr.pos:fr.end])
	if err != nil {
		return err
	}
	fr.pos = fr.end - len(rest)
	return nil
}

// Clone returns a shallow copy of the frame with its own Body slice.
func (f *Frame) Clone() *Frame {
	g := *f
	if f.Body != nil {
		g.Body = append([]byte(nil), f.Body...)
	}
	return &g
}
