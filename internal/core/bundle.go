package core

// Message bundling, the analog of Charm++'s communication-optimization
// strategies (§2.1 of the paper: "optimized communication libraries"):
// application messages produced by one handler execution for the same
// destination PE are combined into a single bundle that pays the
// per-message transport overhead once. The virtual-time engine bundles
// (sim.Options.Bundle); the wire codec carries bundles recursively.

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

// BundleMessages extracts a bundle's contents.
func BundleMessages(m *Message) []*Message {
	return m.Data.([]*Message)
}
