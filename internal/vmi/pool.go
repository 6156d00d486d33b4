package vmi

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Size-classed byte-buffer pool shared by the device chain: frame bodies
// decoded off the wire, serialized message bodies on their way to the
// transport, and the TCP write coalescing buffers all recycle through it,
// so the steady-state messaging path allocates nothing per frame.
//
// Buffers are binned by power-of-two capacity. A buffer obtained from
// class c always has capacity >= 1<<c, so GetBuf(n) never returns a
// buffer shorter than n. Oversized buffers (above maxBufBits) are not
// pooled: they are rare (large migrations, pathological payloads) and
// would pin large allocations.

const (
	minBufBits = 6  // smallest pooled class: 64 B
	maxBufBits = 20 // largest pooled class: 1 MiB
)

// bufPools hold each class's buffers as a pointer to the backing array's
// first byte. A pointer fits in an interface without boxing, so neither
// Put nor Get allocates; the class fixes the length to rebuild.
var bufPools [maxBufBits + 1]sync.Pool

// GetBuf returns a byte slice of length n, drawn from the pool when a
// suitably sized buffer is available. The contents are unspecified.
func GetBuf(n int) []byte {
	c := bufClass(n)
	if c > maxBufBits {
		return make([]byte, n)
	}
	if p, _ := bufPools[c].Get().(*byte); p != nil {
		return unsafe.Slice(p, 1<<c)[:n]
	}
	return make([]byte, n, 1<<c)
}

// PutBuf returns a buffer to the pool. The caller must not use b (or any
// slice aliasing its backing array) after the call. Buffers of any origin
// are accepted; undersized or oversized ones are simply dropped.
func PutBuf(b []byte) {
	c := bits.Len(uint(cap(b))) - 1 // floor(log2(cap)): every pooled Get from class c sees cap >= 1<<c
	if c < minBufBits || c > maxBufBits {
		return
	}
	bufPools[c].Put(unsafe.SliceData(b))
}

// bufClass is the smallest class whose buffers hold n bytes.
func bufClass(n int) int {
	if n <= 1<<minBufBits {
		return minBufBits
	}
	return bits.Len(uint(n - 1))
}
