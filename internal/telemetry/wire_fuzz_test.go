package telemetry

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzReportWire: the report decoder — what Collector.Ingest runs on raw
// control frames — must never panic and must fail only with ErrBadWire;
// whatever it accepts must re-encode to a report that decodes to the same
// value, and that encoding with a byte appended must be rejected.
func FuzzReportWire(f *testing.F) {
	full, err := AppendReport(nil, sampleReport())
	if err != nil {
		f.Fatal(err)
	}
	empty, _ := AppendReport(nil, &Report{Node: 0, Seq: 1})
	f.Add(full)
	f.Add(empty)
	f.Add(full[:len(full)/2])
	f.Add([]byte{})
	f.Add([]byte{'T', 'L', 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReport(data)
		if err != nil {
			if !errors.Is(err, ErrBadWire) {
				t.Fatalf("decode failure does not wrap ErrBadWire: %v", err)
			}
			return
		}
		re, err := AppendReport(nil, r)
		if err != nil {
			t.Fatalf("re-encode of accepted report failed: %v", err)
		}
		r2, err := DecodeReport(re)
		if err != nil {
			t.Fatalf("re-decode of accepted report failed: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("report round trip not stable: %+v vs %+v", r, r2)
		}
		if _, err := DecodeReport(append(re, 0)); err == nil {
			t.Fatal("report decoder accepted trailing bytes")
		}
	})
}
