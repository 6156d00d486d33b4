package core

import (
	"sync/atomic"
	"time"
)

// Quiescence detection: a wave-based double-count protocol in the style
// of Charm++'s CkStartQD / Mattern's four-counter algorithm. The root
// (PE 0) periodically probes every PE; each PE replies — from its own
// scheduler, so the numbers are coherent with its message processing —
// with its cumulative sent and processed counts (QD traffic excluded).
// The system is quiescent when two consecutive waves observe the same
// totals with sent == processed: every message ever routed (including
// frames sitting in delay devices or on TCP links) has been processed,
// and nothing new happened between the waves.
//
// Because probes and replies are ordinary messages, the protocol works
// unchanged when PEs span OS processes.

// qdMsg is the KindQD payload.
type qdMsg struct {
	Probe     bool
	Wave      int64
	Sent      int64 // reply: messages this PE has routed
	Processed int64 // reply: non-QD messages this PE has completed
}

// PayloadBytes implements Sizer.
func (qdMsg) PayloadBytes() int { return 40 }

// PUP is the probe's wire form.
func (m *qdMsg) PUP(p *PUP) {
	p.Bool(&m.Probe)
	p.Varint(&m.Wave)
	p.Varint(&m.Sent)
	p.Varint(&m.Processed)
}

// qdRoot drives waves on PE 0.
type qdRoot struct {
	wave     int64
	replies  int
	sent     int64
	procd    int64
	prevSent int64
	prevProc int64
	havePrev bool
}

// qdWaveInterval paces waves so detection traffic stays negligible next
// to application traffic.
const qdWaveInterval = 300 * time.Microsecond

// startQDWave sends a probe to every PE (including PE 0 itself).
func (rt *Runtime) startQDWave() {
	rt.qd.wave++
	rt.qd.replies = 0
	rt.qd.sent = 0
	rt.qd.procd = 0
	for pe := 0; pe < rt.topo.NumPE(); pe++ {
		rt.Route(&Message{
			Kind:  KindQD,
			SrcPE: 0,
			DstPE: int32(pe),
			Data:  qdMsg{Probe: true, Wave: rt.qd.wave},
			Bytes: qdMsg{}.PayloadBytes(),
		})
	}
}

// handleQD processes a probe (any PE) or a reply (root).
func (rt *Runtime) handleQD(ps *peState, m *Message) error {
	q, ok := m.Data.(qdMsg)
	if !ok {
		return errBadQDPayload
	}
	if q.Probe {
		rt.Route(&Message{
			Kind:  KindQD,
			SrcPE: int32(ps.id),
			DstPE: 0,
			Data: qdMsg{
				Wave:      q.Wave,
				Sent:      rt.sentByPE[ps.id].Load(),
				Processed: rt.processedByPE[ps.id].Load(),
			},
			Bytes: qdMsg{}.PayloadBytes(),
		})
		return nil
	}
	// Reply at the root. Late replies from superseded waves are dropped.
	if q.Wave != rt.qd.wave {
		return nil
	}
	rt.qd.replies++
	rt.qd.sent += q.Sent
	rt.qd.procd += q.Processed
	if rt.qd.replies < rt.topo.NumPE() {
		return nil
	}
	quiet := rt.qd.sent == rt.qd.procd &&
		rt.qd.havePrev &&
		rt.qd.sent == rt.qd.prevSent &&
		rt.qd.procd == rt.qd.prevProc
	if quiet {
		rt.ExitWith(nil)
		return nil
	}
	rt.qd.prevSent, rt.qd.prevProc, rt.qd.havePrev = rt.qd.sent, rt.qd.procd, true
	// Pace the next wave; the timer goroutine routes the probes, which is
	// safe because Route is concurrency-safe in the real-time runtime.
	time.AfterFunc(qdWaveInterval, func() {
		select {
		case <-rt.exitCh:
		default:
			rt.startQDWave()
		}
	})
	return nil
}

var errBadQDPayload = qdError("core: KindQD message with unexpected payload")

type qdError string

func (e qdError) Error() string { return string(e) }

// qdCounters bundles the per-PE counters the protocol reads.
type qdCounters struct {
	sent      []atomic.Int64
	processed []atomic.Int64
}
