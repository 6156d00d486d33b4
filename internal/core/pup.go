package core

// PUP — pack/unpack — is the one structured serializer. One visitor
// method written by the application serves both consumers: message
// payloads on the wire (RegisterPayload) and load-balancer migration
// (evict→arrive). This mirrors the Charm++ PUP framework (§2.1 of the
// paper), where messages and migration ride the same pup() routine.
//
// A PUP runs in one of three modes over a flat byte buffer:
//
//   - sizing:    every call accumulates the encoded size; nothing is read
//     or written. PUPPack runs this pass first so state buffers are
//     allocated exactly once and Bytes reported to the delay/bandwidth
//     model are honest.
//   - packing:   every call appends the value to the buffer. The wire
//     codec packs straight onto the transport's pooled buffer, with no
//     sizing pass and no intermediate slice.
//   - unpacking: every call reads the value back into the pointee, from
//     the front of the buffer; the wire codec hands the unread remainder
//     to whatever follows (the next message of a bundle).
//
// The same method body drives all three, so pack and unpack cannot drift
// apart. Applications branch on Unpacking() only for post-read fix-ups
// (rebuilding derived state, validating against the target program) and
// report validation failures with Errorf.
//
// Fixed-width primitives (Int, Float64, …) are big-endian; Varint and
// Uvarint are encoding/binary's varints, for the small counts and
// sequence numbers message payloads are mostly made of. Every length
// prefix is a uvarint checked against the bytes that remain and, where a
// format sets one, against its count cap, so a corrupt count can neither
// wrap nor allocate.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// PUPable is state that can be serialized through a PUP visitor. The
// method must traverse the same fields in the same order regardless of
// mode; helpers like PUPPack and PUPUnpack rely on that symmetry.
type PUPable interface {
	PUP(p *PUP)
}

// Migratable marks a chare whose state can move between PEs — the
// requirement for load-balancer migration.
type Migratable interface {
	Chare
	PUPable
}

type pupMode uint8

const (
	pupSizing pupMode = iota
	pupPacking
	pupUnpacking
)

// PUP is the visitor passed to PUPable.PUP. The zero value is not
// usable; obtain one through PUPSize, PUPPack, or PUPUnpack.
type PUP struct {
	mode pupMode
	buf  []byte // packing: destination; unpacking: source
	off  int    // read/write cursor into buf
	size int    // sizing: accumulated byte count
	err  error  // first error; all later calls are no-ops
}

// Unpacking reports whether this pass reads state out of the buffer.
// Applications use it to run post-read fix-ups and validation.
func (p *PUP) Unpacking() bool { return p.mode == pupUnpacking }

// Err returns the first error recorded on this visitor, if any.
func (p *PUP) Err() error { return p.err }

// Errorf records a failure (typically a validation failure during
// unpacking, e.g. packed state whose geometry does not match the target
// program). The first error sticks; subsequent visitor calls become
// no-ops so the method body can return early or fall through safely.
func (p *PUP) Errorf(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

func (p *PUP) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// remaining returns how many bytes of the source buffer are unread.
func (p *PUP) remaining() int { return len(p.buf) - p.off }

// raw8 moves one 8-byte big-endian word through the visitor.
func (p *PUP) raw8(v *uint64) {
	if p.err != nil {
		return
	}
	switch p.mode {
	case pupSizing:
		p.size += 8
	case pupPacking:
		p.buf = binary.BigEndian.AppendUint64(p.buf, *v)
	case pupUnpacking:
		if p.remaining() < 8 {
			p.fail(fmt.Errorf("pup: truncated buffer (need 8 bytes at offset %d, have %d)", p.off, p.remaining()))
			return
		}
		*v = binary.BigEndian.Uint64(p.buf[p.off:])
		p.off += 8
	}
}

// Int moves an int (encoded as 8 bytes so 32- and 64-bit builds agree).
func (p *PUP) Int(v *int) {
	u := uint64(int64(*v))
	p.raw8(&u)
	if p.mode == pupUnpacking && p.err == nil {
		*v = int(int64(u))
	}
}

// Uint64 moves a uint64.
func (p *PUP) Uint64(v *uint64) { p.raw8(v) }

// Uvarint moves a uint64 as an unsigned varint: one byte below 128, ten
// at most. Unpacking accepts only the minimal encoding, the one packing
// writes, so an accepted input re-packs to the same bytes.
func (p *PUP) Uvarint(v *uint64) {
	if p.err != nil {
		return
	}
	switch p.mode {
	case pupSizing:
		p.size += (bits.Len64(*v|1) + 6) / 7
	case pupPacking:
		p.buf = binary.AppendUvarint(p.buf, *v)
	case pupUnpacking:
		u, n := binary.Uvarint(p.buf[p.off:])
		if n <= 0 || n > 1 && p.buf[p.off+n-1] == 0 {
			p.fail(fmt.Errorf("pup: truncated or overlong varint at offset %d", p.off))
			return
		}
		*v = u
		p.off += n
	}
}

// Varint moves an int64 as a zig-zag varint, so small magnitudes of
// either sign stay short.
func (p *PUP) Varint(v *int64) {
	u := uint64(*v<<1) ^ uint64(*v>>63)
	p.Uvarint(&u)
	if p.mode == pupUnpacking && p.err == nil {
		*v = int64(u>>1) ^ -int64(u&1)
	}
}

// PUPVarint moves a signed integer field of any width through Varint.
// Unpacking fails if the wire value does not fit T.
func PUPVarint[T ~int | ~int8 | ~int16 | ~int32 | ~int64](p *PUP, v *T) {
	x := int64(*v)
	p.Varint(&x)
	if p.mode == pupUnpacking && p.err == nil {
		if int64(T(x)) != x {
			p.fail(fmt.Errorf("pup: value %d overflows %T", x, *v))
			return
		}
		*v = T(x)
	}
}

// PUPUvarint moves an integer field of any width through Uvarint — the
// form for counts, sizes and enums, which are short when non-negative (a
// negative value round-trips, at ten bytes). Unpacking fails if the wire
// value does not fit T.
func PUPUvarint[T ~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64](p *PUP, v *T) {
	u := uint64(*v)
	p.Uvarint(&u)
	if p.mode == pupUnpacking && p.err == nil {
		if uint64(T(u)) != u {
			p.fail(fmt.Errorf("pup: value %d overflows %T", u, *v))
			return
		}
		*v = T(u)
	}
}

// Float64 moves a float64 bit-exactly.
func (p *PUP) Float64(v *float64) {
	u := math.Float64bits(*v)
	p.raw8(&u)
	if p.mode == pupUnpacking && p.err == nil {
		*v = math.Float64frombits(u)
	}
}

// Bool moves a bool (one byte).
func (p *PUP) Bool(v *bool) {
	if p.err != nil {
		return
	}
	switch p.mode {
	case pupSizing:
		p.size++
	case pupPacking:
		b := byte(0)
		if *v {
			b = 1
		}
		p.buf = append(p.buf, b)
	case pupUnpacking:
		if p.remaining() < 1 {
			p.fail(fmt.Errorf("pup: truncated buffer (need 1 byte at offset %d)", p.off))
			return
		}
		switch p.buf[p.off] {
		case 0:
			*v = false
		case 1:
			*v = true
		default:
			p.fail(fmt.Errorf("pup: invalid bool byte 0x%02x at offset %d", p.buf[p.off], p.off))
			return
		}
		p.off++
	}
}

// length moves a slice length prefix (a uvarint) and, when unpacking,
// validates it against the bytes actually remaining — every element costs
// at least elemSize bytes (anything below 1 counts as 1) — and against
// maxCount when it is positive, so a corrupt prefix cannot trigger a huge
// allocation. The comparison divides rather than multiplies: a count of
// 2^61 must not wrap into plausibility.
func (p *PUP) length(n *int, elemSize, maxCount int) {
	if elemSize < 1 {
		elemSize = 1
	}
	u := uint64(*n)
	p.Uvarint(&u)
	if p.mode == pupUnpacking && p.err == nil {
		if u > uint64(p.remaining()/elemSize) {
			p.fail(fmt.Errorf("pup: implausible length %d (%d bytes remain, %d per element)", u, p.remaining(), elemSize))
			return
		}
		if maxCount > 0 && u > uint64(maxCount) {
			p.fail(fmt.Errorf("pup: length %d exceeds the cap of %d", u, maxCount))
			return
		}
		*n = int(u)
	}
}

// PUPSlice moves a slice of structured elements: a length prefix, then
// elem for each element in order. minElemBytes is the least one element
// can occupy on the wire (at least 1 is assumed); it bounds the count a
// corrupt prefix can claim. maxCount, when positive, is the format's own
// cap on the count, checked before anything is allocated. Unpacking
// replaces the pointee with a fresh slice, nil for length 0.
func PUPSlice[T any](p *PUP, s *[]T, minElemBytes, maxCount int, elem func(e *T, p *PUP)) {
	n := len(*s)
	p.length(&n, minElemBytes, maxCount)
	if p.err != nil {
		return
	}
	if p.mode == pupUnpacking {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(&(*s)[i], p)
	}
}

// Bytes moves a byte slice with a length prefix. Unpacking replaces the
// pointee with a fresh copy (nil stays nil only for length 0... a zero
// length always unpacks as nil).
func (p *PUP) Bytes(v *[]byte) {
	n := len(*v)
	p.length(&n, 1, 0)
	if p.err != nil {
		return
	}
	switch p.mode {
	case pupSizing:
		p.size += n
	case pupPacking:
		p.buf = append(p.buf, *v...)
	case pupUnpacking:
		if n == 0 {
			*v = nil
			return
		}
		*v = append([]byte(nil), p.buf[p.off:p.off+n]...)
		p.off += n
	}
}

// String moves a string with a length prefix.
func (p *PUP) String(v *string) {
	n := len(*v)
	p.length(&n, 1, 0)
	if p.err != nil {
		return
	}
	switch p.mode {
	case pupSizing:
		p.size += n
	case pupPacking:
		p.buf = append(p.buf, *v...)
	case pupUnpacking:
		*v = string(p.buf[p.off : p.off+n])
		p.off += n
	}
}

// Float64s moves a []float64 with a length prefix. Unpacking reuses the
// pointee's backing array when its length already matches (an arriving
// element unpacks into the one its constructor built), so geometry
// validation against the target program can simply compare lengths
// before calling this.
func (p *PUP) Float64s(v *[]float64) {
	n := len(*v)
	p.length(&n, 8, 0)
	if p.err != nil {
		return
	}
	switch p.mode {
	case pupSizing:
		p.size += 8 * n
	case pupPacking:
		for _, f := range *v {
			p.buf = binary.BigEndian.AppendUint64(p.buf, math.Float64bits(f))
		}
	case pupUnpacking:
		s := *v
		if len(s) != n {
			s = make([]float64, n)
		}
		for i := range s {
			s[i] = math.Float64frombits(binary.BigEndian.Uint64(p.buf[p.off:]))
			p.off += 8
		}
		*v = s
	}
}

// Payload moves a nested message payload of any registered or built-in
// type, tag first — what ReducePartial.Value is. An unregistered type
// fails the pack with an error naming it.
func (p *PUP) Payload(v *any) {
	if p.err != nil {
		return
	}
	switch p.mode {
	case pupSizing, pupPacking:
		// The primitive built-ins have no sizing traversal of their own —
		// encoding is the one place their size is defined — so a sizing
		// pass encodes too, onto its nil buffer, and counts.
		b, err := appendPayload(p.buf, *v)
		if err != nil {
			p.fail(err)
			return
		}
		if p.mode == pupSizing {
			p.size += len(b)
		} else {
			p.buf = b
		}
	case pupUnpacking:
		if p.remaining() < 1 {
			p.fail(fmt.Errorf("pup: truncated buffer (need a payload tag at offset %d)", p.off))
			return
		}
		x, rest, err := decodePayload(p.buf[p.off], p.buf[p.off+1:])
		if err != nil {
			p.fail(err)
			return
		}
		*v = x
		p.off = len(p.buf) - len(rest)
	}
}

// PUPPack serializes v for a live migration: a sizing pass first, then a
// packing pass into an exactly-sized buffer. The sizing pass keeps
// allocation honest and its result is cross-checked against the bytes
// actually written, so an asymmetric PUP method is caught at pack time
// rather than as a corrupt unpack on the destination PE.
func PUPPack(v PUPable) ([]byte, error) {
	sz := &PUP{mode: pupSizing}
	v.PUP(sz)
	if sz.err != nil {
		return nil, sz.err
	}
	n := sz.size
	p := &PUP{mode: pupPacking, buf: make([]byte, 0, n)}
	v.PUP(p)
	if p.err != nil {
		return nil, p.err
	}
	if len(p.buf) != n {
		return nil, fmt.Errorf("pup: %T sized %d bytes but packed %d — PUP method is asymmetric", v, n, len(p.buf))
	}
	return p.buf, nil
}

// PUPUnpack restores v from data produced by PUPPack (a live migration).
// Every byte must be consumed; trailing garbage means the method or the
// data is wrong.
func PUPUnpack(v PUPable, data []byte) error {
	p := &PUP{mode: pupUnpacking, buf: data}
	v.PUP(p)
	if p.err != nil {
		return p.err
	}
	if p.off != len(data) {
		return fmt.Errorf("pup: %T left %d trailing bytes of %d", v, len(data)-p.off, len(data))
	}
	return nil
}
