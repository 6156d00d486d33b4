package vmi

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridmdo/internal/metrics"
)

// Fault-injection devices: the chaos-side counterpart of the delay device.
// The paper's method interposes a device into a send chain to emulate a
// wide-area link's latency; real grid links also drop, duplicate, reorder,
// and corrupt frames. A FaultDevice injects exactly those faults at seeded,
// per-(src,dst) configurable rates, and a PartitionDevice severs and heals
// whole link groups mid-run. Both are send-chain devices that the chain
// builder places below the reliability layer, and both are deterministic
// for a given seed: each (src,dst) flow draws from its own seeded RNG
// stream in a fixed per-frame order, so the fault sequence a flow
// experiences is a pure function of (seed, src, dst, frame index) no
// matter how flows interleave.

// FaultPlan sets the fault rates for one (src,dst) flow. All probabilities
// are in [0,1]; a zero plan passes every frame through untouched.
type FaultPlan struct {
	// Drop is the probability a frame is silently discarded.
	Drop float64
	// Duplicate is the probability a frame is delivered twice.
	Duplicate float64
	// Reorder is the probability a frame is held back and released only
	// after ReorderSpan later frames of its flow have passed it.
	Reorder float64
	// ReorderSpan is how many later frames overtake a held frame before it
	// is released; zero means 2.
	ReorderSpan int
	// Corrupt is the probability one body byte is bit-flipped.
	Corrupt float64
	// JitterMax, when positive, adds a uniform random delay in
	// [0, JitterMax) to frames that are not dropped, held, or duplicated.
	JitterMax time.Duration
}

func (p FaultPlan) span() int {
	if p.ReorderSpan > 0 {
		return p.ReorderSpan
	}
	return 2
}

// FaultKind labels one injected fault in the event log.
type FaultKind uint8

// Fault kinds recorded by FaultDevice.
const (
	FaultDrop FaultKind = iota
	FaultDuplicate
	FaultReorder
	FaultCorrupt
	FaultJitter
)

func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "duplicate"
	case FaultReorder:
		return "reorder"
	case FaultCorrupt:
		return "corrupt"
	case FaultJitter:
		return "jitter"
	}
	return "fault(?)"
}

// FaultEvent is one injected fault: which flow, which frame of that flow,
// and what happened to it. Chaos tests compare event sequences across runs
// to prove seed-determinism.
type FaultEvent struct {
	Src, Dst int32
	Index    uint64 // per-flow frame index, 0-based
	Kind     FaultKind
}

// FaultStats counts frames seen and faults injected.
type FaultStats struct {
	Frames, Dropped, Duplicated, Reordered, Corrupted, Jittered int64
}

// FaultDevice injects seeded, per-flow random faults into a send chain,
// modelling an outbound-lossy link. Held and duplicated frames are cloned,
// so the device never retains a caller's (possibly pooled) frame or body
// beyond the call. Close releases any frames still held for reordering.
type FaultDevice struct {
	seed    int64
	planFor func(src, dst int32) FaultPlan

	mu     sync.Mutex
	flows  map[int64]*faultFlow
	stats  FaultStats
	log    []FaultEvent
	logOn  bool
	closed bool

	dly *DelayDevice // carries jittered frames
}

type faultFlow struct {
	src, dst int32
	rng      *rand.Rand
	idx      uint64
	held     []*heldFault
}

type heldFault struct {
	f         *Frame
	next      SendFunc
	remaining int
}

// NewFaultDevice builds a device applying one plan to every flow.
func NewFaultDevice(seed int64, plan FaultPlan) *FaultDevice {
	return NewFaultDeviceFunc(seed, func(int32, int32) FaultPlan { return plan })
}

// NewFaultDeviceFunc builds a device whose plan is chosen per (src,dst) —
// e.g. faults only on flows that cross the WAN boundary.
func NewFaultDeviceFunc(seed int64, planFor func(src, dst int32) FaultPlan) *FaultDevice {
	return &FaultDevice{
		seed:    seed,
		planFor: planFor,
		flows:   make(map[int64]*faultFlow),
		dly:     NewDelayDevice(func(int32, int32) time.Duration { return 0 }),
	}
}

// RecordLog turns on the fault event log (off by default; unbounded).
func (d *FaultDevice) RecordLog() {
	d.mu.Lock()
	d.logOn = true
	d.mu.Unlock()
}

// Log returns a copy of the recorded fault events.
func (d *FaultDevice) Log() []FaultEvent {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]FaultEvent(nil), d.log...)
}

// Stats returns a snapshot of the fault counters.
func (d *FaultDevice) Stats() FaultStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Instrument registers the device's injection counters on reg, one series
// per fault kind, as collection-time reads of Stats().
func (d *FaultDevice) Instrument(reg *metrics.Registry, labels ...metrics.Label) {
	if reg == nil {
		return
	}
	stat := func(sel func(FaultStats) int64) func() int64 {
		return func() int64 { return sel(d.Stats()) }
	}
	reg.CounterFunc("vmi_fault_frames_total", stat(func(s FaultStats) int64 { return s.Frames }), labels...)
	for _, m := range []struct {
		kind string
		sel  func(FaultStats) int64
	}{
		{"drop", func(s FaultStats) int64 { return s.Dropped }},
		{"duplicate", func(s FaultStats) int64 { return s.Duplicated }},
		{"reorder", func(s FaultStats) int64 { return s.Reordered }},
		{"corrupt", func(s FaultStats) int64 { return s.Corrupted }},
		{"jitter", func(s FaultStats) int64 { return s.Jittered }},
	} {
		kl := append(append([]metrics.Label(nil), labels...), metrics.L("kind", m.kind))
		reg.CounterFunc("vmi_fault_injected_total", stat(m.sel), kl...)
	}
}

// Name implements SendDevice.
func (d *FaultDevice) Name() string { return "fault" }

// flowKey packs a (src,dst) pair; mixing it into the seed gives each flow
// an independent deterministic RNG stream.
func flowKey(src, dst int32) int64 { return int64(src)<<32 | int64(uint32(dst)) }

func (d *FaultDevice) flow(src, dst int32) *faultFlow {
	k := flowKey(src, dst)
	fl, ok := d.flows[k]
	if !ok {
		fl = &faultFlow{
			src: src, dst: dst,
			// Golden-ratio mix so nearby pair keys land on distant streams.
			rng: rand.New(rand.NewSource(d.seed ^ k*-0x61C8864680B583EB)),
		}
		d.flows[k] = fl
	}
	return fl
}

func (d *FaultDevice) record(fl *faultFlow, idx uint64, kind FaultKind) {
	if d.logOn {
		d.log = append(d.log, FaultEvent{Src: fl.src, Dst: fl.dst, Index: idx, Kind: kind})
	}
}

// Send implements SendDevice: it decides this frame's faults and advances
// the flow's reorder holds. The decision draws happen in a fixed order and
// count per frame, so the per-flow decision sequence depends only on the
// seed and the frame index.
func (d *FaultDevice) Send(f *Frame, next SendFunc) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return next(f)
	}
	fl := d.flow(f.Src, f.Dst)
	idx := fl.idx
	fl.idx++
	plan := d.planFor(f.Src, f.Dst)

	// Fixed draw order: drop, duplicate, reorder, corrupt — always all
	// four, so later decisions don't shift when earlier rates change the
	// outcome for this frame.
	uDrop, uDup, uReorder, uCorrupt := fl.rng.Float64(), fl.rng.Float64(), fl.rng.Float64(), fl.rng.Float64()
	drop := uDrop < plan.Drop
	dup := !drop && uDup < plan.Duplicate
	reorder := !drop && !dup && uReorder < plan.Reorder
	corrupt := !drop && uCorrupt < plan.Corrupt && len(f.Body) > 0
	var corruptPos int
	var corruptBit uint
	if corrupt {
		corruptPos = fl.rng.Intn(len(f.Body))
		corruptBit = uint(fl.rng.Intn(8))
	}
	var jitter time.Duration
	if plan.JitterMax > 0 {
		jitter = time.Duration(fl.rng.Int63n(int64(plan.JitterMax)))
		if drop || dup || reorder {
			jitter = 0
		}
	}

	d.stats.Frames++
	switch {
	case drop:
		d.stats.Dropped++
		d.record(fl, idx, FaultDrop)
	case dup:
		d.stats.Duplicated++
		d.record(fl, idx, FaultDuplicate)
	case reorder:
		d.stats.Reordered++
		d.record(fl, idx, FaultReorder)
	}
	if corrupt {
		d.stats.Corrupted++
		d.record(fl, idx, FaultCorrupt)
	}
	if jitter > 0 {
		d.stats.Jittered++
		d.record(fl, idx, FaultJitter)
	}

	// Corruption happens on a clone: callers above (notably the reliability
	// layer) retransmit the very frame they passed down, so mutating the
	// caller's body in place would make the corruption permanent instead of
	// a one-shot wire fault. Cloning before the holds below also means held
	// and duplicated copies carry the corruption.
	out := f
	if corrupt {
		out = f.Clone()
		out.Body[corruptPos] ^= 1 << corruptBit
	}

	// A new frame on the flow lets every held frame advance one slot.
	var release []*heldFault
	if !drop {
		keep := fl.held[:0]
		for _, h := range fl.held {
			h.remaining--
			if h.remaining <= 0 {
				release = append(release, h)
			} else {
				keep = append(keep, h)
			}
		}
		fl.held = keep
	}
	if reorder {
		fl.held = append(fl.held, &heldFault{f: out.Clone(), next: next, remaining: plan.span()})
	}
	d.mu.Unlock()

	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if !drop && !reorder {
		if jitter > 0 {
			// The caller may recycle the frame on return; the delay device
			// holds it past the call, so it gets its own copy.
			fail(d.dly.Hold(out.Clone(), SendFunc(next), jitter))
		} else {
			fail(next(out))
			if dup {
				fail(next(out.Clone()))
			}
		}
	}
	for _, h := range release {
		fail(h.next(h.f))
	}
	return firstErr
}

// HeldFrames reports frames currently held back for reordering.
func (d *FaultDevice) HeldFrames() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, fl := range d.flows {
		n += len(fl.held)
	}
	return n
}

// Close releases every frame still held for reordering (in flow order,
// then hold order) and stops the jitter carrier. It is idempotent; frames
// arriving after Close pass straight through.
func (d *FaultDevice) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	keys := make([]int64, 0, len(d.flows))
	for k := range d.flows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var release []*heldFault
	for _, k := range keys {
		fl := d.flows[k]
		release = append(release, fl.held...)
		fl.held = nil
	}
	d.mu.Unlock()
	for _, h := range release {
		_ = h.next(h.f)
	}
	d.dly.Close()
}

// PartitionDevice models a network partition: while severed, every frame
// on an affected flow is silently dropped; after Heal, traffic flows
// again. With the reliability layer above it, a healed partition's lost
// frames are retransmitted, so runs survive transient partitions. It is a
// SendDevice.
type PartitionDevice struct {
	affects func(src, dst int32) bool

	severed atomic.Bool
	dropped atomic.Int64
}

// NewPartitionDevice builds a partition over the flows affects reports
// true for; nil means every flow (a full partition). The device starts
// healed.
func NewPartitionDevice(affects func(src, dst int32) bool) *PartitionDevice {
	if affects == nil {
		affects = func(int32, int32) bool { return true }
	}
	return &PartitionDevice{affects: affects}
}

// Sever cuts the affected links.
func (p *PartitionDevice) Sever() { p.severed.Store(true) }

// Heal restores the affected links.
func (p *PartitionDevice) Heal() { p.severed.Store(false) }

// Severed reports whether the partition is currently in force.
func (p *PartitionDevice) Severed() bool { return p.severed.Load() }

// Dropped reports how many frames the partition has swallowed.
func (p *PartitionDevice) Dropped() int64 { return p.dropped.Load() }

// Instrument registers the partition's counters on reg.
func (p *PartitionDevice) Instrument(reg *metrics.Registry, labels ...metrics.Label) {
	if reg == nil {
		return
	}
	reg.CounterFunc("vmi_partition_dropped_total", p.Dropped, labels...)
	reg.GaugeFunc("vmi_partition_severed", func() int64 {
		if p.Severed() {
			return 1
		}
		return 0
	}, labels...)
}

// Name implements SendDevice.
func (p *PartitionDevice) Name() string { return "partition" }

// Send implements SendDevice.
func (p *PartitionDevice) Send(f *Frame, next SendFunc) error {
	if p.severed.Load() && p.affects(f.Src, f.Dst) {
		p.dropped.Add(1)
		return nil
	}
	return next(f)
}
