package main

import (
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
	"gridmdo/internal/trace"
)

// machine describes where a traced repetition ran, for attributing
// flights to the local or the remote route.
type machine struct {
	numPE      int
	pesPerNode int
	wan        time.Duration // configured one-way latency between nodes
}

func oneNode(numPE int) machine { return machine{numPE: numPE, pesPerNode: numPE} }

func twoNodes(pesPerNode int, wan time.Duration) machine {
	return machine{numPE: 2 * pesPerNode, pesPerNode: pesPerNode, wan: wan}
}

// stageTimes splits the complete application-message spans into their
// three stages, in microseconds; remote flights have the configured
// wide-area latency subtracted.
type stageTimes struct {
	local, remote, wait, handler []float64
}

func stagesOf(spans []*msgSpan, m machine) stageTimes {
	var st stageTimes
	for _, s := range spans {
		if s.Kind != core.KindApp || !s.complete() {
			continue
		}
		if s.Src/m.pesPerNode == s.Dst/m.pesPerNode {
			st.local = append(st.local, us(s.flight()))
		} else {
			st.remote = append(st.remote, us(s.flight()-m.wan))
		}
		st.wait = append(st.wait, us(s.wait()))
		st.handler = append(st.handler, us(s.handler()))
	}
	return st
}

// coreLayers derives the scheduler, router and transport metrics of one
// traced repetition from its events and its registry snapshot.
func coreLayers(r *rep, o *observe, m machine) (evs []trace.Event, horizon time.Duration) {
	evs = o.rec.events()
	r.spans = buildSpans(evs)
	handlers := 0
	for _, ev := range evs {
		if ev.Kind == trace.EvBegin {
			handlers++
		}
		if ev.At > horizon {
			horizon = ev.At
		}
	}
	st := stagesOf(r.spans, m)
	r.set("core.sched.handlers", float64(handlers))
	r.set("core.sched.handler_us_p50", median(st.handler))
	r.set("core.sched.queue_wait_us_p50", median(st.wait))
	r.set("core.sched.queue_wait_us_p99", percentile(st.wait, 0.99))
	r.set("core.route.local_us_p50", median(st.local))
	r.set("core.route.remote_us_p50", median(st.remote))

	snap := o.reg.Snapshot()
	if horizon > 0 {
		r.set("core.sched.idle_frac", float64(snap.Value("core_idle_nanos_total"))/(float64(m.numPE)*float64(horizon.Nanoseconds())))
	}
	r.set("vmi.delay.high_water", float64(snap.Value("vmi_delay_occupancy_high_water")))

	// The TCP device's series stay zero on a single-runtime workload,
	// which has no stack.
	ratio := func(a, b string) float64 {
		if d := snap.Value(b); d > 0 {
			return float64(snap.Value(a)) / float64(d)
		}
		return 0
	}
	r.set("vmi.tcp.frames_per_write", ratio("vmi_tcp_frames_out_total", "vmi_tcp_write_batch_bytes"))
	r.set("vmi.tcp.bytes_per_msg", ratio("vmi_tcp_bytes_out_total", "vmi_rel_data_sent_total"))
	r.set("vmi.tcp.stalls", float64(snap.Value("vmi_tcp_backpressure_stalls_total")))
	return evs, horizon
}

// histMeanUS is the mean of a registry histogram of nanoseconds, in
// microseconds. The registry's duration buckets are a decade wide, too
// coarse for a percentile, so the mean (sum ÷ count) is what it can give.
func histMeanUS(snap metrics.Snapshot, name string) float64 {
	var sum, count int64
	for _, s := range snap.Series {
		if s.Name == name {
			sum += s.Sum
			count += s.Count
		}
	}
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count) / 1e3
}
