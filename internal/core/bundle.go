package core

// A bundle is several same-destination messages in one frame; the wire
// codec carries it recursively. Neither executor sends one: the only
// producer is the benchmark's codec probe (core.codec.bundle4_ns), and
// the form goes with that probe.

// bundleHeaderBytes is the modeled per-sub-message framing cost inside a
// bundle.
const bundleHeaderBytes = 16

// MakeBundle wraps a group of same-destination messages into one bundle
// message. Groups of one are returned as-is.
func MakeBundle(group []*Message) *Message {
	if len(group) == 1 {
		return group[0]
	}
	total := 0
	for _, m := range group {
		total += m.Bytes + bundleHeaderBytes
	}
	return &Message{
		Kind:  KindBundle,
		SrcPE: group[0].SrcPE,
		DstPE: group[0].DstPE,
		Bytes: total,
		Data:  group,
	}
}
