// Package telemetry is the cluster's live observability plane: a
// per-process Agent periodically ships compact metric deltas, trace-span
// digests, and per-step overlap summaries over the vmi control path
// (ControlTelemetry frames), and a Collector — hosted by gridnode's
// node 0, where every agent reports — merges the reports into one
// continuously updating cluster view: aggregated metrics, per-step
// masked/exposed fractions across all nodes, end-to-end job traces, and
// SLO burn rates.
//
// Reports ride raw control frames, deliberately *below* the Reliable
// layer: telemetry must never compete with application retransmits for
// a congested link, so a lossy link degrades the cluster view instead
// of the computation. The protocol is built for that: every report is
// either a full snapshot or a delta chained to the previous sequence
// number, the collector applies deltas only on an unbroken chain and
// otherwise waits for the next full snapshot, span digests are resent
// until complete, and per-step overlap rows replace rather than add.
// Losing frames therefore costs freshness, never correctness.
package telemetry

import (
	"errors"
	"fmt"
	"slices"

	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
)

// ErrBadWire is wrapped by all telemetry decode failures, mirroring the
// core codec convention: a malformed control frame is dropped whole, not
// half-applied.
var ErrBadWire = errors.New("telemetry: bad wire data")

const (
	wireMagic0  = 'T'
	wireMagic1  = 'L'
	wireVersion = 1

	// Defensive decode caps: a corrupted length prefix must not balloon
	// an allocation. Far above anything the agent actually sends.
	maxWireSeries = 1 << 16
	maxWireSpans  = 1 << 16
	maxWireSteps  = 1 << 12
	maxWireStr    = 1 << 10
)

// Span is a trace-span digest: the per-message lifecycle of one runtime
// message, folded from EvSend/EvEnqueue/EvBegin/EvEnd events. The agent
// ships spans incrementally (a span may arrive with only its send half;
// the execution half follows from the node that ran the handler), and
// the collector merges by ID with nonzero-wins per field. Times are
// node-local nanoseconds since that node's runtime epoch; the collector
// re-bases them onto wall time using the report's EpochUnixNs.
type Span struct {
	ID     uint64 // node-unique message ID (node number in the high bits)
	Parent uint64 // causal parent message ID, 0 at a root
	PE     int32  // executing PE (from Begin), else enqueue PE
	Kind   byte   // runtime message kind (core.Kind)

	SendNs    int64 // EvSend time, 0 if not observed
	EnqueueNs int64 // EvEnqueue time, 0 if not observed
	BeginNs   int64 // handler start, 0 if not observed
	EndNs     int64 // handler end, 0 if not observed
}

// StepOverlap is one application step's latency accounting on one node:
// how much communication wait overlapped with useful compute (masked)
// versus stalled a PE (exposed) — the paper's headline quantity, shipped
// live instead of post-mortem. Values are summed PE-nanoseconds.
type StepOverlap struct {
	Step      int64
	ComputeNs int64
	MaskedNs  int64
	ExposedNs int64
}

// Report is one telemetry shipment from one node's agent.
type Report struct {
	Node int32  // reporting node
	Seq  uint64 // per-agent sequence number, 1-based, increments every report

	// Full marks a complete metrics snapshot; otherwise Metrics is a
	// delta relative to the agent's report Seq-1 and the collector must
	// only apply it on an unbroken chain.
	Full bool

	EpochUnixNs int64  // the node's runtime epoch as wall time (UnixNano)
	HorizonNs   int64  // node-local time of this report (ns since epoch)
	Dropped     uint64 // trace events lost to ring wrap or agent backlog

	Metrics []metrics.Sample
	Spans   []Span
	Steps   []StepOverlap
}

// wireKinds maps a sample-kind code on the wire (the index) to its name.
var wireKinds = [...]string{
	metrics.KindCounter.String(),
	metrics.KindGauge.String(),
	metrics.KindHistogram.String(),
}

// PUP moves the report in wire form: magic, version, varint fields,
// count-prefixed sections. It is a core.PUP traversal like the membership
// control payloads, so both decode with the same strictness; every
// section count is capped before its slice is allocated.
func (r *Report) PUP(p *core.PUP) {
	h := [3]byte{wireMagic0, wireMagic1, wireVersion}
	for i := range h {
		core.PUPUvarint(p, &h[i])
	}
	if p.Unpacking() && p.Err() == nil {
		if h[0] != wireMagic0 || h[1] != wireMagic1 {
			p.Errorf("bad report magic")
		} else if h[2] != wireVersion {
			p.Errorf("report version %d", h[2])
		}
	}
	core.PUPVarint(p, &r.Node)
	p.Uvarint(&r.Seq)
	p.Bool(&r.Full)
	p.Varint(&r.EpochUnixNs)
	p.Varint(&r.HorizonNs)
	p.Uvarint(&r.Dropped)
	core.PUPSlice(p, &r.Metrics, 7, maxWireSeries, pupSample)
	core.PUPSlice(p, &r.Spans, 8, maxWireSpans, func(sp *Span, p *core.PUP) {
		p.Uvarint(&sp.ID)
		p.Uvarint(&sp.Parent)
		core.PUPVarint(p, &sp.PE)
		core.PUPUvarint(p, &sp.Kind)
		p.Varint(&sp.SendNs)
		p.Varint(&sp.EnqueueNs)
		p.Varint(&sp.BeginNs)
		p.Varint(&sp.EndNs)
	})
	core.PUPSlice(p, &r.Steps, 4, maxWireSteps, func(st *StepOverlap, p *core.PUP) {
		p.Varint(&st.Step)
		p.Varint(&st.ComputeNs)
		p.Varint(&st.MaskedNs)
		p.Varint(&st.ExposedNs)
	})
}

func pupSample(s *metrics.Sample, p *core.PUP) {
	pupWireStr(p, &s.Name)
	pupWireStr(p, &s.Labels)
	var code uint8
	if !p.Unpacking() {
		i := slices.Index(wireKinds[:], s.Kind)
		if i < 0 {
			p.Errorf("sample kind %q", s.Kind)
		}
		code = uint8(i)
	}
	core.PUPUvarint(p, &code)
	if p.Unpacking() && p.Err() == nil {
		if int(code) >= len(wireKinds) {
			p.Errorf("sample kind code %d", code)
			return
		}
		s.Kind = wireKinds[code]
	}
	p.Varint(&s.Value)
	p.Varint(&s.Count)
	p.Varint(&s.Sum)
	core.PUPSlice(p, &s.Bucket, 2, maxWireSeries, func(b *metrics.Bucket, p *core.PUP) {
		p.Varint(&b.LE)
		p.Varint(&b.Count)
	})
}

// pupWireStr moves a string that must not exceed maxWireStr bytes.
func pupWireStr(p *core.PUP, s *string) {
	p.String(s)
	if p.Unpacking() && p.Err() == nil && len(*s) > maxWireStr {
		p.Errorf("%d-byte string", len(*s))
	}
}

// AppendReport appends r in wire form. An unknown sample kind fails.
func AppendReport(dst []byte, r *Report) ([]byte, error) {
	b, err := core.PUPPack(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadWire, err)
	}
	return append(dst, b...), nil
}

// DecodeReport parses a wire-form report. Strict: bad magic, unknown
// version, truncated input, out-of-range fields, oversized counts, and
// trailing bytes all fail, so a corrupted control frame is rejected whole.
func DecodeReport(b []byte) (*Report, error) {
	var r Report
	if err := core.PUPUnpack(&r, b); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadWire, err)
	}
	return &r, nil
}
