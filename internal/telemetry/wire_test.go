package telemetry

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gridmdo/internal/metrics"
)

func sampleReport() *Report {
	return &Report{
		Node:        3,
		Seq:         17,
		Full:        true,
		EpochUnixNs: 1_700_000_000_000_000_000,
		HorizonNs:   2_500_000_000,
		Dropped:     4,
		Metrics: []metrics.Sample{
			{Name: "a_total", Kind: "counter", Value: 42},
			{Name: "depth", Labels: `{tenant="x"}`, Kind: "gauge", Value: -7},
			{Name: "lat", Kind: "histogram", Count: 9, Sum: 123,
				Bucket: []metrics.Bucket{{LE: 10, Count: 3}, {LE: 100, Count: 9}}},
		},
		Spans: []Span{
			{ID: 0x0003_0000_0000_0001, Parent: 0xFFFE_0000_0000_0001, PE: 2, Kind: 1,
				SendNs: 100, EnqueueNs: 4_100_000, BeginNs: 4_200_000, EndNs: 4_900_000},
			{ID: 0x0003_0000_0000_0002, SendNs: 500},
		},
		Steps: []StepOverlap{
			{Step: 0, ComputeNs: 9_000_000, MaskedNs: 3_000_000, ExposedNs: 1_000_000},
			{Step: 1, ComputeNs: 9_100_000, MaskedNs: 3_500_000, ExposedNs: 500_000},
		},
	}
}

func TestReportRoundTrip(t *testing.T) {
	want := sampleReport()
	buf, err := AppendReport(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Node != want.Node || got.Seq != want.Seq || got.Full != want.Full ||
		got.EpochUnixNs != want.EpochUnixNs || got.HorizonNs != want.HorizonNs ||
		got.Dropped != want.Dropped {
		t.Errorf("header round trip: got %+v", got)
	}
	if len(got.Metrics) != 3 || got.Metrics[1].Value != -7 || got.Metrics[2].Bucket[1].Count != 9 {
		t.Errorf("metrics round trip: %+v", got.Metrics)
	}
	if got.Metrics[1].Labels != `{tenant="x"}` {
		t.Errorf("labels round trip: %q", got.Metrics[1].Labels)
	}
	if len(got.Spans) != 2 || got.Spans[0] != want.Spans[0] || got.Spans[1] != want.Spans[1] {
		t.Errorf("spans round trip: %+v", got.Spans)
	}
	if len(got.Steps) != 2 || got.Steps[1] != want.Steps[1] {
		t.Errorf("steps round trip: %+v", got.Steps)
	}
}

func TestReportEmptySections(t *testing.T) {
	buf, err := AppendReport(nil, &Report{Node: 0, Seq: 1, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != 0 || len(got.Spans) != 0 || len(got.Steps) != 0 {
		t.Errorf("empty report decoded with content: %+v", got)
	}
}

func TestDecodeReportStrict(t *testing.T) {
	good, err := AppendReport(nil, sampleReport())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"bad magic", []byte{'X', 'Y', 1, 0}},
		{"bad version", []byte{'T', 'L', 99, 0}},
		{"truncated", good[:len(good)/2]},
		{"trailing bytes", append(append([]byte(nil), good...), 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeReport(tc.b); err == nil {
				t.Fatalf("decoded %s without error", tc.name)
			}
		})
	}

	// Truncation at EVERY prefix length must error, never panic or
	// succeed (the trailing-byte check catches accidental short parses).
	for n := 0; n < len(good); n++ {
		if _, err := DecodeReport(good[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", n, len(good))
		}
	}
}

func TestDecodeReportBadKind(t *testing.T) {
	r := sampleReport()
	buf, err := AppendReport(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	// Encoding an unknown sample kind must fail up front.
	r.Metrics[0].Kind = "exotic"
	if _, err := AppendReport(nil, r); err == nil {
		t.Error("encoded unknown sample kind")
	}
	_ = buf
}

// TestReportWireGolden pins the report encoding to the bytes the
// hand-written codec produced before the report became a PUP traversal:
// the move onto PUP must not change what is on the wire.
func TestReportWireGolden(t *testing.T) {
	cases := []struct {
		name string
		r    *Report
		hex  string
	}{
		{"all sections", sampleReport(), "544c010611018080d0e2c6bfce972f80e497d012040307615f746f74616c0000540000000564657074680c7b74656e616e743d2278227d010d000000036c617400020012f601021406c8011202818080808080c00181808080808080ffff010401c801c0bef40380d98004c092d604828080808080c001000000e807000000020080d1ca08809bee0280897a02c0ebd608c09fab03c0843d"},
		{"empty", &Report{Node: 0, Seq: 1}, "544c01000100000000000000"},
	}
	for _, tc := range cases {
		b, err := AppendReport(nil, tc.r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(b); got != tc.hex {
			t.Errorf("%s: encoded %s, want %s", tc.name, got, tc.hex)
		}
		got, err := DecodeReport(b)
		if err != nil || !reflect.DeepEqual(got, tc.r) {
			t.Errorf("%s: decoded %+v, %v", tc.name, got, err)
		}
	}
}

// reportHead is the encoding of an empty report up to (not including)
// its metrics count.
var reportHead = []byte{'T', 'L', 1, 0, 1, 0, 0, 0, 0}

// TestDecodeReportNarrowing: a node or span PE that does not fit int32
// is rejected, not silently truncated onto another node or PE.
func TestDecodeReportNarrowing(t *testing.T) {
	node := append([]byte{'T', 'L', 1}, binary.AppendVarint(nil, 1<<32+3)...)
	node = append(node, 1, 0, 0, 0, 0, 0, 0, 0)
	span := append(append([]byte(nil), reportHead...), 0, 1, 1, 1)
	span = append(binary.AppendVarint(span, 1<<31), 0, 0, 0, 0, 0, 0)
	for name, b := range map[string][]byte{"node 2^32+3": node, "span PE 2^31": span} {
		if r, err := DecodeReport(b); !errors.Is(err, ErrBadWire) {
			t.Errorf("%s: decoded %+v, %v; want ErrBadWire", name, r, err)
		}
	}
	// The same frames with in-range values are well formed.
	ok := append([]byte{'T', 'L', 1}, binary.AppendVarint(nil, math.MaxInt32)...)
	ok = append(ok, 1, 0, 0, 0, 0, 0, 0, 0)
	if r, err := DecodeReport(ok); err != nil || r.Node != math.MaxInt32 {
		t.Errorf("node MaxInt32: decoded %+v, %v", r, err)
	}
}

// TestDecodeReportChecks: each field check rejects its input.
func TestDecodeReportChecks(t *testing.T) {
	long := strings.Repeat("x", maxWireStr+1)
	withHead := func(tail ...byte) []byte { return append(append([]byte(nil), reportHead...), tail...) }
	cases := map[string][]byte{
		"full flag 2":      {'T', 'L', 1, 0, 1, 2, 0, 0, 0, 0, 0, 0},
		"sample kind 3":    withHead(1, 1, 'a', 0, 3, 0, 0, 0, 0, 0, 0),
		"long sample name": withHead(append(append(append([]byte{1}, binary.AppendUvarint(nil, uint64(len(long)))...), long...), 0, 0, 0, 0, 0, 0, 0, 0)...),
	}
	for name, b := range cases {
		if r, err := DecodeReport(b); !errors.Is(err, ErrBadWire) {
			t.Errorf("%s: decoded %+v, %v; want ErrBadWire", name, r, err)
		}
	}
	// The shortest span and sample the format allows still decode: the
	// per-element minimums the count check divides by are honest.
	b := withHead(1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0)
	if r, err := DecodeReport(b); err != nil || len(r.Metrics) != 1 || len(r.Spans) != 2 || len(r.Steps) != 2 {
		t.Errorf("minimal sections: decoded %+v, %v", r, err)
	}
}

// TestDecodeReportCapsBeforeAlloc: a section count over its cap that the
// frame's bytes could still cover is refused before the slice is made.
func TestDecodeReportCapsBeforeAlloc(t *testing.T) {
	body := make([]byte, 1<<20)
	cases := map[string][]byte{
		"series":  binary.AppendUvarint(append([]byte(nil), reportHead...), maxWireSeries+1),
		"buckets": binary.AppendUvarint(append(append([]byte(nil), reportHead...), 1, 0, 0, 0, 0, 0, 0), maxWireSeries+1),
		"spans":   binary.AppendUvarint(append(append([]byte(nil), reportHead...), 0), maxWireSpans+1),
		"steps":   binary.AppendUvarint(append(append([]byte(nil), reportHead...), 0, 0), maxWireSteps+1),
	}
	for name, b := range cases {
		b = append(b, body...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeReport(b)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadWire) {
			t.Errorf("%s: oversized count: err %v", name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
			t.Errorf("%s: rejecting an oversized count allocated %d bytes", name, d)
		}
	}
}
