package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"time"
)

// WriteChrome renders a merged, time-sorted event stream as Chrome
// trace-event JSON (the format chrome://tracing and Perfetto's legacy
// importer load directly): handler executions become complete ("X")
// slices, message flights become flow ("s"/"f") arrows from the send to
// the matching enqueue, and notes become instants. PIDs are
// nodes (via nodeOf, identity when nil), TIDs are PEs — so a two-gridnode
// run renders as two process lanes with flow arrows crossing them.
func WriteChrome(w io.Writer, evs []Event, nodeOf func(pe int) int) error {
	if nodeOf == nil {
		nodeOf = func(int) int { return 0 }
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	first := true
	emit := func(format string, args ...interface{}) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	// Handler slices: pair Begin/End per PE in stream order.
	open := make(map[int]Event)
	// Flow arrows need the send side buffered until the enqueue appears.
	sends := make(map[uint64]Event)
	for _, ev := range evs {
		switch ev.Kind {
		case EvBegin:
			open[ev.PE] = ev
		case EvEnd:
			b, ok := open[ev.PE]
			if !ok {
				continue
			}
			delete(open, ev.PE)
			emit(`{"name":"handler","cat":"handler","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"msg":%d,"kind":%d}}`,
				us(b.At), us(ev.At-b.At), nodeOf(ev.PE), ev.PE, b.MsgID, b.MsgKind)
		case EvSend:
			if ev.MsgID != 0 {
				if _, ok := sends[ev.MsgID]; !ok {
					sends[ev.MsgID] = ev
				}
			}
		case EvEnqueue:
			s, ok := sends[ev.MsgID]
			if !ok || ev.At < s.At {
				continue
			}
			emit(`{"name":"msg","cat":"flow","ph":"s","id":%d,"ts":%.3f,"pid":%d,"tid":%d}`,
				ev.MsgID, us(s.At), nodeOf(s.PE), s.PE)
			emit(`{"name":"msg","cat":"flow","ph":"f","bp":"e","id":%d,"ts":%.3f,"pid":%d,"tid":%d}`,
				ev.MsgID, us(ev.At), nodeOf(ev.PE), ev.PE)
		case EvIdle:
			emit(`{"name":"idle","cat":"sched","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d}`,
				us(ev.At), us(time.Duration(ev.Arg1)), nodeOf(ev.PE), ev.PE)
		case EvNote:
			emit(`{"name":%s,"cat":"note","ph":"i","s":"t","ts":%.3f,"pid":%d,"tid":%d,"args":{"a1":%d,"a2":%d}}`,
				strconv.Quote(ev.Note), us(ev.At), nodeOf(ev.PE), ev.PE, ev.Arg1, ev.Arg2)
		}
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}
