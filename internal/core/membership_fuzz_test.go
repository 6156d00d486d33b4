package core_test

import (
	"errors"
	"reflect"
	"testing"

	"gridmdo/internal/core"
)

// FuzzMembershipWire: the member-table and membership-message codecs
// must never panic and must fail only with ErrBadWire, whatever they accept must survive a re-encode
// round-trip structurally intact, and any accepted encoding with bytes
// appended must be rejected (the decoders are strict about trailing
// garbage — a half-applied control frame is worse than a dropped one).
func FuzzMembershipWire(f *testing.F) {
	tbl := &core.MemberTable{Version: 7, Epoch: 3, Members: []core.Member{
		{Node: 0, State: core.MemberActive, Addr: "127.0.0.1:9000"},
		{Node: 1, State: core.MemberDraining, Addr: ""},
		{Node: 5, State: core.MemberDead, Addr: "[::1]:1"},
	}}
	f.Add(core.AppendMemberTable(nil, tbl))
	f.Add(core.AppendMemberTable(nil, &core.MemberTable{Version: 1, Epoch: 1}))
	// The op type is unexported, so valid message seeds are made by
	// patching the op byte (offset 3: magic, magic, version, op) of a
	// zero-op encoding.
	join := core.AppendMembershipMsg(nil, &core.MembershipMsg{From: 3, Node: 3, Addr: "127.0.0.1:0"})
	join[3] = 1 // join op
	f.Add(join)
	table := core.AppendMembershipMsg(nil, &core.MembershipMsg{From: 0, Tbl: tbl})
	table[3] = 2 // table op
	f.Add(table)
	f.Add([]byte{})
	f.Add([]byte{'M', 'T', 1})
	f.Add([]byte{'M', 'M', 2, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		tb, errT := core.DecodeMemberTable(data)
		m, errM := core.DecodeMembershipMsg(data)
		for _, err := range []error{errT, errM} {
			if err != nil && !errors.Is(err, core.ErrBadWire) {
				t.Fatalf("decode failure does not wrap ErrBadWire: %v", err)
			}
		}
		if errT == nil {
			re := core.AppendMemberTable(nil, tb)
			tb2, err := core.DecodeMemberTable(re)
			if err != nil {
				t.Fatalf("re-decode of accepted table failed: %v", err)
			}
			if !reflect.DeepEqual(tb, tb2) {
				t.Fatalf("table round trip not stable: %+v vs %+v", tb, tb2)
			}
			if _, err := core.DecodeMemberTable(append(re, 0)); err == nil {
				t.Fatal("table decoder accepted trailing bytes")
			}
		}
		if errM == nil {
			re := core.AppendMembershipMsg(nil, m)
			m2, err := core.DecodeMembershipMsg(re)
			if err != nil {
				t.Fatalf("re-decode of accepted message failed: %v", err)
			}
			if !reflect.DeepEqual(m, m2) {
				t.Fatalf("message round trip not stable: %+v vs %+v", m, m2)
			}
			if _, err := core.DecodeMembershipMsg(append(re, 0)); err == nil {
				t.Fatal("message decoder accepted trailing bytes")
			}
		}
	})
}
