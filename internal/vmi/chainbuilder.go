package vmi

import (
	"fmt"
	"sync/atomic"

	"gridmdo/internal/metrics"
)

// ChainBuilder assembles a node's whole transport stack — the reliability
// layer, fault-injection devices, and the TCP terminal — from one
// declarative description:
//
//	runtime → Reliable → faults → TCP ⇢ socket
//	runtime ← Reliable ← TCP ⇠ socket
//
// Fault devices are send-side and sit below the reliability layer, inside
// its repair envelope, exactly as the chaos harness requires. A link
// lossy in both directions is a fault device on each end.
//
// The builder is also the one place per-device metrics attach: with a
// registry configured, every device in the chain is wrapped with
// frames/bytes flow counters, and devices that expose internal state
// (FaultDevice, PartitionDevice, Reliable, TCP) register their own series
// too.
//
// Build returns a *Stack. The runtime completes it at its own
// construction through Stack.Bind, attaching its frame-delivery entry and
// failure hook in one call.
type ChainBuilder struct {
	self  int
	addrs map[int]string
	route func(pe int32) int

	reg          *metrics.Registry
	relCfg       ReliableConfig
	relSet       bool
	faults       []SendDevice
	dialAttempts int
	onControl    func(*Frame)
	err          error
}

// Instrumentable is implemented by devices that register their own metric
// series beyond the generic flow counters.
type Instrumentable interface {
	Instrument(reg *metrics.Registry, labels ...metrics.Label)
}

// NewChainBuilder starts a stack description for node self. addrs maps
// node IDs to listen addresses and route maps a destination PE to its
// owning node, exactly as for NewTCP.
func NewChainBuilder(self int, addrs map[int]string, route func(pe int32) int) *ChainBuilder {
	return &ChainBuilder{self: self, addrs: addrs, route: route}
}

// Metrics attaches a registry; every stage added (before or after this
// call) is instrumented at Build. A nil registry leaves the stack
// uninstrumented.
func (b *ChainBuilder) Metrics(reg *metrics.Registry) *ChainBuilder {
	b.reg = reg
	return b
}

// Reliable tunes the end-to-end reliability layer every stack carries
// between the runtime and the fault devices. Leaving it out builds the
// layer with the ReliableConfig{} defaults.
func (b *ChainBuilder) Reliable(cfg ReliableConfig) *ChainBuilder {
	if b.relSet {
		b.fail(fmt.Errorf("vmi: chain builder: Reliable declared twice"))
		return b
	}
	b.relCfg, b.relSet = cfg, true
	return b
}

// Faults appends send-side fault-injection devices below the reliability
// layer; devs[0] sees a frame first.
func (b *ChainBuilder) Faults(devs ...SendDevice) *ChainBuilder {
	b.faults = append(b.faults, devs...)
	return b
}

// DialAttempts bounds the transport's connection retries (see
// TCP.DialAttempts).
func (b *ChainBuilder) DialAttempts(n int) *ChainBuilder {
	b.dialAttempts = n
	return b
}

// OnControl installs the control-frame handler (coordinator shutdown
// announcements and the like).
func (b *ChainBuilder) OnControl(fn func(*Frame)) *ChainBuilder {
	b.onControl = fn
	return b
}

func (b *ChainBuilder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// instrumentSend wraps a send stage with flow counters when a registry is
// configured, and lets the device register its own series.
func (b *ChainBuilder) instrumentSend(d SendDevice, pos int) SendDevice {
	if b.reg == nil {
		return d
	}
	labels := b.deviceLabels(d.Name(), pos)
	if in, ok := d.(Instrumentable); ok {
		in.Instrument(b.reg, labels[:2]...)
	}
	return countedDevice{d,
		b.reg.Counter("vmi_device_frames_total", labels...),
		b.reg.Counter("vmi_device_bytes_total", labels...)}
}

// countedDevice is a send stage behind the chain's flow counters.
type countedDevice struct {
	SendDevice
	frames, bytes *metrics.Counter
}

// Send counts the frame, then hands it to the wrapped device.
func (c countedDevice) Send(f *Frame, next SendFunc) error {
	c.frames.Inc()
	c.bytes.Add(int64(len(f.Body)))
	return c.SendDevice.Send(f, next)
}

// deviceLabels builds the identity labels of one chain position. The
// first two (node, device) also label a device's internal series; dir
// completes the flow-counter identity.
func (b *ChainBuilder) deviceLabels(name string, pos int) []metrics.Label {
	return []metrics.Label{
		metrics.L("node", fmt.Sprint(b.self)),
		metrics.L("device", fmt.Sprintf("%s%d", name, pos)),
		metrics.L("dir", "send"),
	}
}

// Build assembles the stack. The TCP device is created and configured but
// not yet listening; call Stack.Listen (and Stack.Bind, usually via
// core.NewRuntime) before traffic flows.
func (b *ChainBuilder) Build() (*Stack, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.route == nil {
		return nil, fmt.Errorf("vmi: chain builder needs a route function")
	}
	s := &Stack{reg: b.reg}
	s.tcp = NewTCP(b.self, b.addrs, b.route, nil)
	s.tcp.DialAttempts = b.dialAttempts
	s.tcp.OnControl = b.onControl
	s.tcp.Instrument(b.reg)

	faults := make([]SendDevice, len(b.faults))
	for i, d := range b.faults {
		faults[i] = b.instrumentSend(d, i)
	}
	s.rel = newReliable(s.tcp, s.deliverBound, b.relCfg, faults)
	s.rel.Instrument(b.reg, metrics.L("node", fmt.Sprint(b.self)))
	return s, nil
}

// Stack is a built transport stack: the one transport a runtime sends
// through, plus lifecycle management for the devices inside it. Complete
// it with Bind (core.NewRuntime does this for the stack passed as its
// transport) before frames arrive.
type Stack struct {
	tcp *TCP
	rel *Reliable

	deliver atomic.Pointer[RecvFunc]
	reg     *metrics.Registry
}

// deliverBound is the terminal of the receive path: frames that cleared
// TCP and reliability reach the bound runtime here.
func (s *Stack) deliverBound(f *Frame) error {
	d := s.deliver.Load()
	if d == nil {
		return fmt.Errorf("vmi: stack received frame before Bind")
	}
	return (*d)(f)
}

// Bind attaches the runtime's frame-delivery entry and asynchronous
// failure hook, completing the stack. The hook fires only on
// retransmit-budget exhaustion; transport errors below the reliability
// layer are repaired there.
func (s *Stack) Bind(deliver RecvFunc, onErr func(error)) {
	s.deliver.Store(&deliver)
	s.rel.setErrHandler(onErr)
}

// Send hands a frame to the reliability layer, which continues to the wire.
func (s *Stack) Send(f *Frame) error { return s.rel.Send(f) }

// Listen starts the TCP terminal accepting connections and returns the
// bound address.
func (s *Stack) Listen() (string, error) { return s.tcp.Listen() }

// Addr returns the bound listen address, or "" before Listen.
func (s *Stack) Addr() string { return s.tcp.Addr() }

// SetAddr updates a peer node's address (dynamic port exchange). A new
// address means a new incarnation, so any reliability dedup tombstone
// left by a forgotten predecessor under the same node number is cleared.
func (s *Stack) SetAddr(node int, addr string) {
	s.rel.ResetPeer(node)
	s.tcp.SetAddr(node, addr)
}

// SendControl sends a control frame directly to a node.
func (s *Stack) SendControl(node int, f *Frame) error { return s.tcp.SendControl(node, f) }

// SetEpoch advances the membership epoch stamped on reliable frames.
func (s *Stack) SetEpoch(e uint32) { s.rel.SetEpoch(e) }

// SetDialGate installs the membership dial gate on the TCP terminal.
func (s *Stack) SetDialGate(fn func(node int) bool) { s.tcp.SetDialGate(fn) }

// ForgetPeer drops reliability state for node.
func (s *Stack) ForgetPeer(node int) { s.rel.ForgetPeer(node) }

// TCP exposes the terminal device (fault injection helpers like DropConn
// and CorruptWire live there).
func (s *Stack) TCP() *TCP { return s.tcp }

// Reliable exposes the reliability layer; never nil.
func (s *Stack) Reliable() *Reliable { return s.rel }

// Metrics returns the registry the stack was built with, or nil.
func (s *Stack) Metrics() *metrics.Registry { return s.reg }

// Close shuts the stack down: the TCP device first, which aborts any dial
// sitting out its backoff towards a peer never reached, then the
// reliability layer, whose retransmissions may be waiting on that dial.
func (s *Stack) Close() error {
	err := s.tcp.Close()
	s.rel.Close()
	return err
}
