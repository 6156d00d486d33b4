package telemetry

import (
	"testing"
	"time"

	"gridmdo/internal/metrics"
	"gridmdo/internal/trace"
)

// benchAgentTick measures one ReportOnce over one reporting interval's
// worth of stencil-rate traffic (~1400 messages, 4 lifecycle events
// each), with or without per-step marks in the stream. The marked path
// must stay cheap regardless of how long the agent has been running —
// the step-row cache exists so a tick profiles only the open step, not
// retainSteps' worth of history.
func benchAgentTick(b *testing.B, marks bool) {
	tr := trace.NewWithCapacity(8, 1<<12)
	coll := NewCollector(CollectorConfig{})
	a, err := NewAgent(AgentConfig{
		Node: 0, Registry: metrics.NewRegistry(), Tracer: tr,
		Epoch: time.Now(), NumPE: 8, Interval: time.Hour,
		Send: func(buf []byte) error { return coll.Ingest(buf) },
	})
	if err != nil {
		b.Fatal(err)
	}
	var id uint64
	step := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// 100 ms of the paper-scale stencil: ~8 steps of ~175 messages.
		for s := 0; s < 8; s++ {
			if marks {
				step++
				tr.Record(trace.Event{PE: 0, Kind: trace.EvNote, Note: "step",
					Arg1: int64(step), At: time.Duration(id)})
			}
			for m := 0; m < 175; m++ {
				id++
				pe := int(id % 8)
				at := time.Duration(id)
				tr.Record(trace.Event{PE: pe, Kind: trace.EvSend, MsgID: id, MsgKind: 1, At: at})
				tr.Record(trace.Event{PE: pe, Kind: trace.EvEnqueue, MsgID: id, At: at + 1})
				tr.Record(trace.Event{PE: pe, Kind: trace.EvBegin, MsgID: id, At: at + 2})
				tr.Record(trace.Event{PE: pe, Kind: trace.EvEnd, MsgID: id, At: at + 3})
			}
		}
		b.StartTimer()
		if err := a.ReportOnce(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAgentTickSteps(b *testing.B)    { benchAgentTick(b, true) }
func BenchmarkAgentTickMarkless(b *testing.B) { benchAgentTick(b, false) }
