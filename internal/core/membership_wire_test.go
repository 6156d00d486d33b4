package core

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

var wireTable = &MemberTable{Version: 7, Epoch: 3, Members: []Member{
	{Node: 0, State: MemberActive, Addr: "127.0.0.1:9000"},
	{Node: 1, State: MemberDraining, Addr: ""},
	{Node: 5, State: MemberDead, Addr: "[::1]:1"},
}}

// TestMembershipWireGolden pins the membership encodings to the bytes the
// hand-written codec produced before the payloads became PUP traversals:
// the move onto PUP must not change what is on the wire.
func TestMembershipWireGolden(t *testing.T) {
	cases := []struct {
		name string
		enc  []byte
		hex  string
	}{
		{"table of 3", AppendMemberTable(nil, wireTable),
			"4d540107030300010e3132372e302e302e313a393030300202000a03075b3a3a315d3a31"},
		{"empty table", AppendMemberTable(nil, &MemberTable{Version: 1, Epoch: 1}),
			"4d5401010100"},
		{"join", AppendMembershipMsg(nil, &MembershipMsg{Op: memberOpJoin, From: 3, Node: 3, Addr: "127.0.0.1:0"}),
			"4d4d010106060b3132372e302e302e313a3000"},
		{"table message", AppendMembershipMsg(nil, &MembershipMsg{Op: memberOpTable, Tbl: wireTable}),
			"4d4d0102000000014d540107030300010e3132372e302e302e313a393030300202000a03075b3a3a315d3a31"},
		{"dead report", AppendMembershipMsg(nil, &MembershipMsg{Op: memberOpDeadReport, From: -2, Node: 300}),
			"4d4d010503d8040000"},
	}
	for _, tc := range cases {
		if got := hex.EncodeToString(tc.enc); got != tc.hex {
			t.Errorf("%s: encoded %s, want %s", tc.name, got, tc.hex)
		}
	}
	tb, err := DecodeMemberTable(cases[0].enc)
	if err != nil || !reflect.DeepEqual(tb, wireTable) {
		t.Errorf("table decode: %+v, %v", tb, err)
	}
	m, err := DecodeMembershipMsg(cases[3].enc)
	if err != nil || m.Op != memberOpTable || !reflect.DeepEqual(m.Tbl, wireTable) {
		t.Errorf("table message decode: %+v, %v", m, err)
	}
}

// TestMembershipWireRejects: every structural check of the decoders.
func TestMembershipWireRejects(t *testing.T) {
	table := func(mut func(b []byte) []byte) []byte {
		return mut(AppendMemberTable(nil, wireTable))
	}
	// Offsets into the 3-member table: header 0-2, version 3, epoch 4,
	// count 5, first member node 6, state 7, addr length 8.
	cases := map[string][]byte{
		"empty":         nil,
		"bad magic":     table(func(b []byte) []byte { b[1] = 'X'; return b }),
		"bad version":   table(func(b []byte) []byte { b[2] = 2; return b }),
		"trailing byte": table(func(b []byte) []byte { return append(b, 0) }),
		"bad state":     table(func(b []byte) []byte { b[7] = byte(MemberLeft) + 1; return b }),
		"epoch > 24 bits": append(append([]byte{'M', 'T', 1, 1},
			binary.AppendUvarint(nil, 1<<24)...), 0),
		"nodes not increasing": AppendMemberTable(nil, &MemberTable{Members: []Member{{Node: 2}, {Node: 2}}}),
		"node outside int32": append([]byte{'M', 'T', 1, 1, 1, 1},
			append(binary.AppendVarint(nil, 1<<32+3), 1, 0)...),
		"bad op":         {'M', 'M', 1, 0, 0, 0, 0, 0},
		"bad table flag": {'M', 'M', 1, 1, 0, 0, 0, 2},
	}
	for name, b := range cases {
		_, errT := DecodeMemberTable(b)
		_, errM := DecodeMembershipMsg(b)
		if !errors.Is(errT, ErrBadWire) || !errors.Is(errM, ErrBadWire) {
			t.Errorf("%s: table err %v, message err %v; want ErrBadWire from both", name, errT, errM)
		}
	}
	good := AppendMembershipMsg(nil, &MembershipMsg{Op: memberOpTable, Tbl: wireTable})
	for n := range good {
		if _, err := DecodeMembershipMsg(good[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", n, len(good))
		}
	}
}

// TestMemberTableCapBeforeAlloc: a member count over maxMembers that the
// frame's bytes could still cover is refused before the slice is made.
func TestMemberTableCapBeforeAlloc(t *testing.T) {
	b := append([]byte{'M', 'T', 1, 1, 1}, binary.AppendUvarint(nil, maxMembers+1)...)
	b = append(b, make([]byte, 1<<20)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeMemberTable(b)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadWire) {
		t.Fatalf("oversized member count: err %v", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Errorf("rejecting an oversized member count allocated %d bytes", d)
	}
}
