package core

import (
	"encoding/binary"
	"fmt"
)

// Varint helpers for the membership control frames, which are parsed by
// hand (message payloads use PUP.Varint and PUP.Uvarint). They wrap
// encoding/binary's varint forms with the package's structural error
// convention: every parse failure wraps ErrBadWire.

// AppendUvarint appends v in unsigned varint form.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// ConsumeUvarint parses one unsigned varint from the front of b and
// returns the remainder. Truncated or overlong input wraps ErrBadWire.
func ConsumeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, fmt.Errorf("%w: bad uvarint", ErrBadWire)
	}
	return v, b[n:], nil
}

// AppendVarint appends v in zig-zag signed varint form.
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// ConsumeVarint parses one signed varint from the front of b and returns
// the remainder. Truncated or overlong input wraps ErrBadWire.
func ConsumeVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, b, fmt.Errorf("%w: bad varint", ErrBadWire)
	}
	return v, b[n:], nil
}
