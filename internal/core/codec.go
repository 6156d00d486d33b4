package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// Wire serialization for messages that cross OS-process boundaries (the
// TCP transport). In-process messages are never serialized — the paper's
// intra-cluster fast path.
//
// A message is a fixed 45-byte header (magic, version, Kind, To, Entry,
// SrcPE, DstPE, and the causal trace context ID/Parent)
// followed by a payload: one tag byte, then the value. There is one
// structured serializer. The primitive payloads (nil, int, int64,
// float64, []float64, string, []byte, bool), bundles, which encode their
// messages recursively, and multicast member lists have straight-line
// cases below; every other payload type — the runtime's own protocol
// messages and each application's — is a tag plus the type's PUP method,
// registered once with RegisterPayload. A type nobody registered is an
// encode error naming the type: there is no self-describing fallback.

// Message wire layout (big-endian):
//
//	off len field
//	  0   2  magic 0x474D ("GM")
//	  2   1  version (6)
//	  3   1  Kind
//	  4   4  To.Array (int32)
//	  8   8  To.Index (int64)
//	 16   4  Entry (int32)
//	 20   4  SrcPE (int32)
//	 24   4  DstPE (int32)
//	 28   8  ID (uint64, causal trace context)
//	 36   8  Parent (uint64, causal trace context)
//	 44   1  payload tag
//	 45   …  payload (tag-specific)
//
// Version 2 added the 16-byte trace context (ID, Parent) so causality
// survives the TCP hop; version 3 made every structured payload a PUP
// traversal; version 4 dropped the modeled size (Message.Bytes), which
// only the sender's link model reads; version 5 dropped the 4-byte
// delivery priority, which no message crossing the wire set; version 6
// added KindMulticast and its member list (tag 12). Frames of other
// versions are rejected.
const (
	wireMagic    uint16 = 0x474D
	wireVersion  byte   = 6
	msgHeaderLen        = 45
)

// A KindMulticast message's payload (tag 12) is its member list followed
// by the one payload every member receives:
//
//	off len field
//	  0   4  member count n (uint32)
//	  4  20n members: To.Array (int32), To.Index (int64), ID (uint64)
//	  …   …  payload: tag, then the value
const mcastMemberLen = 20

// Payload tags. Tags 0–63 are reserved for the runtime; 64–255 belong to
// applications (RegisterPayload; DESIGN.md has the per-package table).
const (
	tagNil      byte = 0
	tagInt      byte = 1
	tagInt64    byte = 2
	tagFloat64  byte = 3
	tagF64Slice byte = 4
	tagString   byte = 5
	tagBytes    byte = 6
	tagBool     byte = 7
	tagReduce   byte = 8
	tagBundle   byte = 10 // 9 carried the retired quiescence probe and stays unassigned
	tagLB       byte = 11
	tagMcast    byte = 12

	minAppTag byte = 64
)

// ErrBadWire is wrapped by all structural decode failures.
var ErrBadWire = errors.New("core: malformed wire message")

// payloadType is one registered structured payload: its tag and the PUP
// traversal of its concrete type T, which serves both directions. run
// drives *T's PUP method over buf — packing a v of type T onto it, or
// unpacking a T from its front — and returns the visitor as the traversal
// left it, with the value it unpacked.
type payloadType struct {
	tag byte
	typ reflect.Type
	run func(mode pupMode, buf []byte, v any) (PUP, any)
}

// payloadScratch is the addressable T a pointer-receiver PUP method needs,
// and the visitor it runs on. Both would otherwise escape to the heap on
// every message; pooled, packing allocates nothing and unpacking only the
// value it returns.
type payloadScratch[T any] struct {
	p PUP
	x T
}

// The registry is written at init time and read on every message.
var (
	payloadMu     sync.RWMutex
	payloadByTag  = map[byte]*payloadType{}
	payloadByType = map[reflect.Type]*payloadType{}
)

func payloadTypeOf(v any) *payloadType {
	payloadMu.RLock()
	defer payloadMu.RUnlock()
	return payloadByType[reflect.TypeOf(v)]
}

func payloadTypeByTag(tag byte) *payloadType {
	payloadMu.RLock()
	defer payloadMu.RUnlock()
	return payloadByTag[tag]
}

// RegisterPayload makes T a wire payload under tag, which must be in the
// application range [64, 255]: *T's PUP method is the type's one
// serializer, and values arrive in handlers as T. Every process must
// register the same types under the same tags; registration belongs in
// init functions, and a tag or type registered twice panics.
func RegisterPayload[T any, P interface {
	*T
	PUPable
}](tag byte) {
	if tag < minAppTag {
		panic(fmt.Sprintf("core: payload tag %d outside the application range [%d,255]", tag, minAppTag))
	}
	registerPayload[T, P](tag)
}

func registerPayload[T any, P interface {
	*T
	PUPable
}](tag byte) {
	pool := sync.Pool{New: func() any { return new(payloadScratch[T]) }}
	pt := &payloadType{
		tag: tag,
		typ: reflect.TypeOf((*T)(nil)).Elem(),
		run: func(mode pupMode, buf []byte, v any) (PUP, any) {
			s := pool.Get().(*payloadScratch[T])
			s.p = PUP{mode: mode, buf: buf}
			s.x, _ = v.(T)
			P(&s.x).PUP(&s.p)
			p := s.p
			var out any
			if mode == pupUnpacking && p.err == nil {
				out = s.x
			}
			*s = payloadScratch[T]{} // pin nothing while pooled
			pool.Put(s)
			return p, out
		},
	}
	payloadMu.Lock()
	defer payloadMu.Unlock()
	if dup := payloadByTag[tag]; dup != nil {
		panic(fmt.Sprintf("core: payload tag %d registered for both %v and %v", tag, dup.typ, pt.typ))
	}
	if dup := payloadByType[pt.typ]; dup != nil {
		panic(fmt.Sprintf("core: payload type %v registered twice (tags %d and %d)", pt.typ, dup.tag, tag))
	}
	payloadByTag[tag] = pt
	payloadByType[pt.typ] = pt
}

func init() {
	registerPayload[ReducePartial](tagReduce)
	registerPayload[lbMsg](tagLB)
}

// AppendMessage appends m's wire encoding to dst and returns the extended
// slice. The transport path calls it with pooled buffers so steady-state
// sends do not allocate.
func AppendMessage(dst []byte, m *Message) ([]byte, error) {
	dst = binary.BigEndian.AppendUint16(dst, wireMagic)
	dst = append(dst, wireVersion, byte(m.Kind))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.To.Array))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(m.To.Index)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Entry))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.SrcPE))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.DstPE))
	dst = binary.BigEndian.AppendUint64(dst, m.ID)
	dst = binary.BigEndian.AppendUint64(dst, m.Parent)
	dst, err := appendPayload(dst, m.Data)
	if err != nil {
		return nil, fmt.Errorf("core: encode message %v: %w", m, err)
	}
	return dst, nil
}

// DecodeMessage reverses AppendMessage. The input must contain exactly one
// message; nothing in the result aliases b, so callers may recycle it. The
// message, and each message of a bundle, comes from NewMessage.
func DecodeMessage(b []byte) (*Message, error) {
	m, rest, err := decodeMessage(b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadWire, len(rest))
	}
	return m, nil
}

func decodeMessage(b []byte) (*Message, []byte, error) {
	if len(b) < msgHeaderLen {
		return nil, b, fmt.Errorf("%w: truncated header (%d bytes)", ErrBadWire, len(b))
	}
	if binary.BigEndian.Uint16(b[0:]) != wireMagic {
		return nil, b, fmt.Errorf("%w: bad magic", ErrBadWire)
	}
	if b[2] != wireVersion {
		return nil, b, fmt.Errorf("%w: version %d, want %d", ErrBadWire, b[2], wireVersion)
	}
	data, rest, err := decodePayload(b[msgHeaderLen-1], b[msgHeaderLen:])
	if err != nil {
		return nil, b, err
	}
	m := NewMessage()
	*m = Message{
		Kind:   Kind(b[3]),
		To:     ElemRef{Array: ArrayID(int32(binary.BigEndian.Uint32(b[4:]))), Index: int(int64(binary.BigEndian.Uint64(b[8:])))},
		Entry:  EntryID(int32(binary.BigEndian.Uint32(b[16:]))),
		Data:   data,
		SrcPE:  int32(binary.BigEndian.Uint32(b[20:])),
		DstPE:  int32(binary.BigEndian.Uint32(b[24:])),
		ID:     binary.BigEndian.Uint64(b[28:]),
		Parent: binary.BigEndian.Uint64(b[36:]),
	}
	return m, rest, nil
}

// appendPayload writes the tag byte and tag-specific encoding of v.
func appendPayload(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case int:
		dst = append(dst, tagInt)
		return binary.BigEndian.AppendUint64(dst, uint64(int64(x))), nil
	case int64:
		dst = append(dst, tagInt64)
		return binary.BigEndian.AppendUint64(dst, uint64(x)), nil
	case float64:
		dst = append(dst, tagFloat64)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(x)), nil
	case []float64:
		dst = append(dst, tagF64Slice)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x)))
		for _, f := range x {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
		}
		return dst, nil
	case string:
		dst = append(dst, tagString)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x)))
		return append(dst, x...), nil
	case []byte:
		dst = append(dst, tagBytes)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x)))
		return append(dst, x...), nil
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(dst, tagBool, b), nil
	case []*Message:
		dst = append(dst, tagBundle)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x)))
		var err error
		for _, sub := range x {
			if dst, err = AppendMessage(dst, sub); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case *mcastBody:
		dst = append(dst, tagMcast)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x.Members)))
		for _, mb := range x.Members {
			dst = binary.BigEndian.AppendUint32(dst, uint32(mb.Ref.Array))
			dst = binary.BigEndian.AppendUint64(dst, uint64(int64(mb.Ref.Index)))
			dst = binary.BigEndian.AppendUint64(dst, mb.ID)
		}
		return appendPayload(dst, x.Data)
	default:
		pt := payloadTypeOf(v)
		if pt == nil {
			return nil, fmt.Errorf("payload type %T is not registered (core.RegisterPayload)", v)
		}
		p, _ := pt.run(pupPacking, append(dst, pt.tag), v)
		if p.err != nil {
			return nil, fmt.Errorf("payload %T: %w", v, p.err)
		}
		return p.buf, nil
	}
}

// decodePayload parses one tagged payload body. Everything returned is
// freshly allocated — nothing aliases b.
func decodePayload(tag byte, b []byte) (any, []byte, error) {
	switch tag {
	case tagNil:
		return nil, b, nil
	case tagInt:
		if len(b) < 8 {
			return nil, b, truncErr("int")
		}
		return int(int64(binary.BigEndian.Uint64(b))), b[8:], nil
	case tagInt64:
		if len(b) < 8 {
			return nil, b, truncErr("int64")
		}
		return int64(binary.BigEndian.Uint64(b)), b[8:], nil
	case tagFloat64:
		if len(b) < 8 {
			return nil, b, truncErr("float64")
		}
		return math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:], nil
	case tagF64Slice:
		if len(b) < 4 {
			return nil, b, truncErr("[]float64")
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if n > len(b)/8 {
			return nil, b, truncErr("[]float64")
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8*i:]))
		}
		return out, b[8*n:], nil
	case tagString:
		if len(b) < 4 {
			return nil, b, truncErr("string")
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if n > len(b) {
			return nil, b, truncErr("string")
		}
		return string(b[:n]), b[n:], nil
	case tagBytes:
		if len(b) < 4 {
			return nil, b, truncErr("[]byte")
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if n > len(b) {
			return nil, b, truncErr("[]byte")
		}
		return append([]byte(nil), b[:n]...), b[n:], nil
	case tagBool:
		if len(b) < 1 {
			return nil, b, truncErr("bool")
		}
		return b[0] != 0, b[1:], nil
	case tagBundle:
		if len(b) < 4 {
			return nil, b, truncErr("bundle")
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		// Each sub-message needs at least a header; reject counts the
		// remaining bytes cannot possibly satisfy before allocating.
		if n > len(b)/msgHeaderLen {
			return nil, b, truncErr("bundle")
		}
		subs := make([]*Message, n)
		for i := range subs {
			var err error
			if subs[i], b, err = decodeMessage(b); err != nil {
				return nil, b, err
			}
		}
		return subs, b, nil
	case tagMcast:
		if len(b) < 4 {
			return nil, b, truncErr("multicast")
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		// Reject a count the remaining bytes cannot hold before growing
		// the member list.
		if n > len(b)/mcastMemberLen {
			return nil, b, truncErr("multicast")
		}
		mc := newMcastBody(nil)
		for i := 0; i < n; i++ {
			mc.Members = append(mc.Members, mcastMember{
				Ref: ElemRef{Array: ArrayID(int32(binary.BigEndian.Uint32(b))), Index: int(int64(binary.BigEndian.Uint64(b[4:])))},
				ID:  binary.BigEndian.Uint64(b[12:]),
			})
			b = b[mcastMemberLen:]
		}
		if len(b) < 1 {
			releaseMcastBody(mc)
			return nil, b, truncErr("multicast")
		}
		data, rest, err := decodePayload(b[0], b[1:])
		if err != nil {
			releaseMcastBody(mc)
			return nil, b, err
		}
		mc.Data = data
		return mc, rest, nil
	default:
		pt := payloadTypeByTag(tag)
		if pt == nil {
			return nil, b, fmt.Errorf("%w: unknown payload tag %d", ErrBadWire, tag)
		}
		p, v := pt.run(pupUnpacking, b, nil)
		if p.err != nil {
			return nil, b, fmt.Errorf("%w: %v payload: %w", ErrBadWire, pt.typ, p.err)
		}
		return v, b[p.off:], nil
	}
}

func truncErr(what string) error {
	return fmt.Errorf("%w: truncated %s payload", ErrBadWire, what)
}
