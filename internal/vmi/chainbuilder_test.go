package vmi

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gridmdo/internal/metrics"
)

// stackPair joins two built stacks over loopback TCP, capturing frames
// delivered on node 1. PEs 0..1 live on node 0, PEs 2..3 on node 1.
type stackPair struct {
	s0, s1 *Stack

	mu   sync.Mutex
	got1 []*Frame
}

func newStackPair(t *testing.T, mod0, mod1 func(*ChainBuilder) *ChainBuilder) *stackPair {
	t.Helper()
	route := func(pe int32) int {
		if pe < 2 {
			return 0
		}
		return 1
	}
	p := &stackPair{}
	build := func(node int) *Stack {
		b := NewChainBuilder(node, map[int]string{node: "127.0.0.1:0"}, route)
		if node == 0 && mod0 != nil {
			b = mod0(b)
		}
		if node == 1 && mod1 != nil {
			b = mod1(b)
		}
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	p.s0, p.s1 = build(0), build(1)
	p.s0.Bind(func(*Frame) error { return nil }, func(err error) { t.Errorf("node 0: %v", err) })
	p.s1.Bind(func(f *Frame) error {
		p.mu.Lock()
		p.got1 = append(p.got1, f.Clone())
		p.mu.Unlock()
		return nil
	}, func(err error) { t.Errorf("node 1: %v", err) })
	a0, err := p.s0.Listen()
	if err != nil {
		t.Fatal(err)
	}
	a1, err := p.s1.Listen()
	if err != nil {
		t.Fatal(err)
	}
	p.s0.SetAddr(1, a1)
	p.s1.SetAddr(0, a0)
	t.Cleanup(func() {
		p.s0.Close()
		p.s1.Close()
	})
	return p
}

func (p *stackPair) at1() []*Frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Frame(nil), p.got1...)
}

func waitPair(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChainBuilderFaultsInsideReliable pins fault placement: fault
// devices declared on the builder sit below the reliability layer, inside
// its repair envelope, so a lossy link is repaired by retransmission and
// the application sees exactly-once in-order delivery.
func TestChainBuilderFaultsInsideReliable(t *testing.T) {
	fd := NewFaultDevice(5, FaultPlan{Drop: 0.3})
	defer fd.Close()
	p := newStackPair(t,
		func(b *ChainBuilder) *ChainBuilder {
			return b.Faults([]SendDevice{fd}, nil).Reliable(ReliableConfig{RTO: 5 * time.Millisecond})
		},
		func(b *ChainBuilder) *ChainBuilder {
			return b.Reliable(ReliableConfig{RTO: 5 * time.Millisecond})
		})
	const n = 50
	for i := 0; i < n; i++ {
		if err := p.s0.Send(&Frame{Src: 0, Dst: 2, Body: []byte(fmt.Sprintf("msg-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitPair(t, "repaired delivery", func() bool { return len(p.at1()) == n })
	for i, f := range p.at1() {
		if want := fmt.Sprintf("msg-%d", i); string(f.Body) != want {
			t.Fatalf("frame %d = %q, want %q (order broken)", i, f.Body, want)
		}
	}
	if fd.Stats().Dropped == 0 {
		t.Error("30% drop plan dropped nothing")
	}
	if p.s0.Reliable().Stats().Retransmits == 0 {
		t.Error("drops were never repaired by retransmission")
	}
}

// TestChainBuilderInstrumentedSeries checks that building with a registry
// wires the generic per-device flow counters plus each device's own
// series, and that Stack exposes its parts.
func TestChainBuilderInstrumentedSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	fd := NewFaultDevice(9, FaultPlan{Drop: 0.1})
	defer fd.Close()
	p := newStackPair(t,
		func(b *ChainBuilder) *ChainBuilder {
			return b.Metrics(reg).
				Faults([]SendDevice{fd}, nil).
				Reliable(ReliableConfig{RTO: 5 * time.Millisecond})
		},
		func(b *ChainBuilder) *ChainBuilder {
			return b.Reliable(ReliableConfig{RTO: 5 * time.Millisecond})
		})
	if p.s0.Metrics() != reg || p.s1.Metrics() != nil {
		t.Error("Stack.Metrics does not report the build registry")
	}
	if p.s0.TCP() == nil || p.s0.Reliable() == nil {
		t.Error("Stack accessors lost the terminal devices")
	}
	const n = 30
	for i := 0; i < n; i++ {
		if err := p.s0.Send(&Frame{Src: 0, Dst: 2, Body: []byte(fmt.Sprintf("m-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitPair(t, "delivery", func() bool { return len(p.at1()) == n })
	snap := reg.Snapshot()
	for _, name := range []string{
		"vmi_device_frames_total",
		"vmi_device_bytes_total",
		"vmi_fault_frames_total",
		"vmi_tcp_frames_out_total",
		"vmi_rel_data_sent_total",
		"vmi_rel_delivered_total",
	} {
		if !snap.Has(name) {
			t.Errorf("series %s missing from built-with-metrics stack", name)
		}
	}
	if got := snap.Value("vmi_rel_data_sent_total"); got < n {
		t.Errorf("vmi_rel_data_sent_total = %d, want >= %d", got, n)
	}
	// The flow counter for the send-side fault device saw every frame.
	var found bool
	for _, s := range snap.Series {
		if s.Name == "vmi_device_frames_total" &&
			strings.Contains(s.Labels, `device="fault`) &&
			strings.Contains(s.Labels, `dir="send"`) {
			found = true
			if s.Value < n {
				t.Errorf("fault send flow counter = %d, want >= %d", s.Value, n)
			}
		}
	}
	if !found {
		t.Error("no flow counter for the send-side fault device")
	}
}

// TestChainBuilderErrors covers construction-time validation.
func TestChainBuilderErrors(t *testing.T) {
	if _, err := NewChainBuilder(0, nil, nil).Build(); err == nil {
		t.Error("nil route accepted")
	}
	b := NewChainBuilder(0, map[int]string{0: "127.0.0.1:0"}, func(int32) int { return 0 }).
		Reliable(ReliableConfig{}).
		Reliable(ReliableConfig{})
	if _, err := b.Build(); err == nil {
		t.Error("double Reliable accepted")
	}
}
