package vmi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"gridmdo/internal/metrics"
)

// Reliable is the end-to-end reliability layer every Stack carries between
// the runtime and the TCP device: per-peer sequence numbers, cumulative acks piggybacked on
// every data frame (plus delayed standalone acks for one-way flows), a
// bounded retransmit buffer with timeout and exponential backoff,
// duplicate suppression and in-order delivery on receive, and transparent
// reconnection of dropped TCP connections (the next send or retransmit
// re-dials; a peer that was connected once gets one dial attempt per
// retransmit, so the RTO schedule is the only retry loop). Transport-level
// errors — write failures, dropped connections, CRC-corrupt frames — are
// absorbed and repaired by retransmission; the failure handler bound with
// Stack.Bind (the runtime's fail-fast hook) fires only when a frame
// exhausts its retransmit budget, so a fault is repaired where it can be
// and ends the run only past a hard backstop.
//
// Layering: the runtime sits directly above Reliable, the fault devices
// declared with ChainBuilder.Faults and the socket below it, so every
// fault the chaos harness injects on the "wire" side is inside the
// reliability envelope:
//
//	runtime → Reliable → faults → TCP ⇢ socket
//	runtime ← Reliable ← faults ← TCP ⇠ socket
//
// Each data frame's body is prefixed with a 28-byte reliability header
// carrying the sequence number, the cumulative ack, and a CRC of the
// payload. Control frames (Dst < 0) are intercepted at the TCP device and
// never reach the layer; any other frame whose body does not start with a
// valid reliability header is dropped and counted in BadHdrs.

// Reliability header layout (big-endian):
//
//	off len field
//	  0   4  magic 0x524C4231 ("RLB1")
//	  4   1  kind (1 data, 2 ack)
//	  5   3  epoch (24-bit cluster-membership epoch; 0 = no fencing)
//	  8   8  seq (data frames; 0 on pure acks)
//	 16   8  ack (cumulative: every seq <= ack was received; 0 = none)
//	 24   4  CRC-32C of the header's first 24 bytes followed by the
//	         payload — covering seq, ack, and epoch matters: a bit flip
//	         in the ack field would otherwise pass a payload-only CRC and
//	         free unacked retransmit entries, and a flipped epoch could
//	         fence (or unfence) a frame the sender never stamped
const (
	relMagic     = 0x524C4231
	relHeaderLen = 28

	relKindData byte = 1
	relKindAck  byte = 2

	// MaxEpoch is the largest membership epoch the 24-bit header field
	// carries; SetEpoch masks to this range.
	MaxEpoch = 1<<24 - 1
)

// ErrBadRelHeader is returned when decoding a reliability header that is
// truncated, mis-tagged, or of unknown kind.
var ErrBadRelHeader = errors.New("vmi: bad reliability header")

// RelHeader is the decoded reliability header of one frame.
type RelHeader struct {
	Kind  byte
	Epoch uint32 // 24-bit membership epoch (0 = sender not fencing)
	Seq   uint64
	Ack   uint64
	CRC   uint32
}

// AppendRelHeader appends h's wire encoding to dst.
func AppendRelHeader(dst []byte, h RelHeader) []byte {
	var b [relHeaderLen]byte
	binary.BigEndian.PutUint32(b[0:], relMagic)
	b[4] = h.Kind
	b[5] = byte(h.Epoch >> 16)
	b[6] = byte(h.Epoch >> 8)
	b[7] = byte(h.Epoch)
	binary.BigEndian.PutUint64(b[8:], h.Seq)
	binary.BigEndian.PutUint64(b[16:], h.Ack)
	binary.BigEndian.PutUint32(b[24:], h.CRC)
	return append(dst, b[:]...)
}

// DecodeRelHeader parses a reliability header from the front of b and
// returns it with the remaining payload bytes.
func DecodeRelHeader(b []byte) (RelHeader, []byte, error) {
	if len(b) < relHeaderLen {
		return RelHeader{}, b, fmt.Errorf("%w: %d bytes", ErrBadRelHeader, len(b))
	}
	if binary.BigEndian.Uint32(b[0:]) != relMagic {
		return RelHeader{}, b, fmt.Errorf("%w: bad magic", ErrBadRelHeader)
	}
	h := RelHeader{
		Kind:  b[4],
		Epoch: uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7]),
		Seq:   binary.BigEndian.Uint64(b[8:]),
		Ack:   binary.BigEndian.Uint64(b[16:]),
		CRC:   binary.BigEndian.Uint32(b[24:]),
	}
	if h.Kind != relKindData && h.Kind != relKindAck {
		return RelHeader{}, b, fmt.Errorf("%w: kind %d", ErrBadRelHeader, h.Kind)
	}
	return h, b[relHeaderLen:], nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// relCRC computes the checksum of an encoded reliability frame body:
// CRC-32C over the header's first 24 bytes (magic, kind, epoch, seq, ack)
// followed by the payload. It reads the bytes already in the body — a
// header copied into a local array would escape into crc32's indirect
// update and cost a heap allocation per call.
func relCRC(body []byte) uint32 {
	return crc32.Update(crc32.Checksum(body[:relHeaderLen-4], castagnoli), castagnoli, body[relHeaderLen:])
}

// sealRel stores relCRC of an encoded frame body in its CRC field.
func sealRel(body []byte) {
	binary.BigEndian.PutUint32(body[relHeaderLen-4:], relCRC(body))
}

// restampEpoch rewrites the epoch field of an already-encoded reliability
// header in place and refreshes the CRC. Retransmits use it so a frame
// buffered before an epoch bump carries the sender's *current* epoch: a
// fenced receiver drops the old stamp as a wire loss, and the restamped
// retransmit repairs it — only senders that never learn the new epoch
// (zombies) stay fenced out.
func restampEpoch(body []byte, epoch uint32) {
	if len(body) < relHeaderLen {
		return
	}
	h, _, err := DecodeRelHeader(body)
	if err != nil || h.Epoch == epoch {
		return
	}
	body[5] = byte(epoch >> 16)
	body[6] = byte(epoch >> 8)
	body[7] = byte(epoch)
	sealRel(body)
}

// relEpoch reads the epoch field of an encoded reliability header of at
// least relHeaderLen bytes.
func relEpoch(body []byte) uint32 {
	return uint32(body[5])<<16 | uint32(body[6])<<8 | uint32(body[7])
}

// ReliableConfig tunes the reliability layer. Zero values select the
// defaults noted on each field.
type ReliableConfig struct {
	// RTO is the initial retransmit timeout (default 20ms); it backs off
	// exponentially per attempt up to RTOMax (default 500ms).
	RTO    time.Duration
	RTOMax time.Duration
}

func (c *ReliableConfig) fill() {
	if c.RTO <= 0 {
		c.RTO = 20 * time.Millisecond
	}
	if c.RTOMax <= 0 {
		c.RTOMax = 500 * time.Millisecond
	}
}

const (
	// relAckDelay bounds how long a received frame waits before a
	// standalone ack is emitted when no reverse traffic piggybacks one.
	relAckDelay = 2 * time.Millisecond
	// relMaxRetransmits is the per-frame retransmit budget; when a frame
	// has been retransmitted this many times without an ack, the layer
	// gives up and fires the failure handler.
	relMaxRetransmits = 12
	// relWindow bounds the per-peer retransmit buffer in frames; senders
	// block until acks free space.
	relWindow = 512
)

// ReliableStats counts the layer's repair activity.
type ReliableStats struct {
	DataSent, Retransmits, AcksSent        int64
	Delivered, DupDropped, CrcDropped      int64
	HeldOutOfOrder, TransportErrs, BadHdrs int64
	// StaleEpochDropped counts frames fenced for carrying a membership
	// epoch older than this node's — the zombie traffic the epoch bump
	// exists to keep out.
	StaleEpochDropped int64
	// PeerFailures counts peers whose budget exhaustion was claimed by the
	// SetOnPeerFail handler (and whose state was dropped) instead of
	// failing the run.
	PeerFailures int64
	// WindowStalls counts Sends that blocked on a full retransmit window
	// (counted when the wait begins); WindowStallNanos is the time they
	// spent blocked (added when each wait ends).
	WindowStalls, WindowStallNanos int64
}

// Reliable is the reliability device of every ChainBuilder stack; it owns
// the TCP device's receive path and error handler.
type Reliable struct {
	tcp  *TCP
	up   RecvFunc
	down SendFunc
	cfg  ReliableConfig

	// errHandler is the budget-exhaustion backstop (the runtime's fail
	// hook, bound by Stack.Bind); transport-level errors never reach it
	// directly.
	errHandler atomic.Pointer[func(error)]

	// onPeerFail is the per-peer budget-exhaustion handler (membership's
	// death detector); see SetOnPeerFail.
	onPeerFail atomic.Pointer[func(node int, err error) bool]

	// epoch is this node's current membership epoch, stamped on every
	// data frame and ack; received frames with a lower epoch are fenced.
	epoch atomic.Uint32

	mu      sync.Mutex
	space   *sync.Cond // senders wait here for retransmit-window space
	peers   map[int]*relPeer
	stats   ReliableStats
	failErr error
	closed  bool

	// gone holds the receive-dedup floor (recvNext) of forgotten peers.
	// A drained node keeps retransmitting its last unacked frames until
	// the final ack reaches it; without the floor, fresh peer state would
	// deliver those retransmits a second time. Cleared by ResetPeer when
	// the node rejoins as a new incarnation.
	gone map[int]uint64

	done chan struct{}
	wg   sync.WaitGroup
}

type relPeer struct {
	node    int
	nextSeq uint64 // next sequence number to assign (first frame is 1)
	sendBuf []*relEntry

	// deliverMu serializes upward delivery for this peer: it is taken
	// before the layer's state lock (never the other way around), so the
	// in-order guarantee holds even while an old and a reconnected
	// connection briefly both deliver. Hence the upward callback must not
	// call Send synchronously while itself running under deliverMu — the
	// runtime's inject path only enqueues, so it never does.
	deliverMu sync.Mutex
	recvNext  uint64            // lowest sequence not yet delivered upward
	heldRecv  map[uint64]*Frame // out-of-order arrivals awaiting the gap
	ackDue    bool

	// Representative PEs for routing standalone acks, learned from
	// traffic (frames to the peer carry a local Src and remote Dst;
	// frames from it the reverse).
	selfPE, peerPE int32
	havePEs        bool
}

// relEntry is one unacked data frame in a peer's retransmit buffer. Its
// frame is the wire frame itself, and the frame's body is a GetBuf buffer:
// both go back to their pools once the frame is acked and no sender is
// still copying it.
//
// refs counts the entry's owners: one for its place in sendBuf, and one
// for each sender copying f outside r.mu — Send's first transmission, or a
// retransmit. References are only taken under r.mu while the entry is in
// sendBuf; an ack (or ForgetPeer) drops the buffer's under r.mu, a copier
// its own when its transmission returns, and whoever drops the last one
// recycles the entry (release). So an entry acked while a copy is in
// flight is recycled by that copier, never under it, and a body is only
// written — sealed on Send, restamped on retransmit — by a holder of r.mu
// that sees no copier.
type relEntry struct {
	seq      uint64
	f        Frame
	lastSent time.Time
	attempts int
	refs     atomic.Int32
}

var relEntryPool = sync.Pool{New: func() any { return new(relEntry) }}

// release drops one reference to e and recycles it with the last one.
func (e *relEntry) release() {
	if e.refs.Add(-1) != 0 {
		return
	}
	PutBuf(e.f.Body)
	e.f = Frame{}
	relEntryPool.Put(e)
}

// newReliable interposes a reliability layer on t: frames handed to
// rel.Send are sequenced, buffered, and shipped through sendFaults to t;
// frames arriving off t's wire are verified, deduplicated, reordered back
// into sequence, and delivered to deliver. Must be called before t
// establishes connections.
func newReliable(t *TCP, deliver RecvFunc, cfg ReliableConfig, sendFaults []SendDevice) *Reliable {
	cfg.fill()
	rel := &Reliable{
		tcp:   t,
		up:    deliver,
		cfg:   cfg,
		peers: make(map[int]*relPeer),
		gone:  make(map[int]uint64),
		done:  make(chan struct{}),
	}
	rel.space = sync.NewCond(&rel.mu)
	rel.down = BuildSendChain(t.Send, sendFaults...)
	t.setRecv(rel.deliverWire)
	t.setErrHandler(rel.onTransportErr)
	rel.wg.Add(2)
	go rel.retransmitLoop()
	go rel.ackLoop()
	return rel
}

// setErrHandler installs the budget-exhaustion handler (Stack.Bind).
func (r *Reliable) setErrHandler(h func(error)) { r.errHandler.Store(&h) }

func (r *Reliable) errh() func(error) {
	if p := r.errHandler.Load(); p != nil {
		return *p
	}
	return nil
}

// SetOnPeerFail installs the per-peer budget-exhaustion handler, consulted
// before the failure handler when one peer exhausts its retransmit budget.
// Returning true claims the failure as handled — the layer forgets the
// peer (dropping its buffered frames) and keeps serving the others —
// turning a single dead node into a membership event instead of a run
// failure. Returning false falls through to the failure handler.
func (r *Reliable) SetOnPeerFail(fn func(node int, err error) bool) {
	r.onPeerFail.Store(&fn)
}

func (r *Reliable) peerFailHandler() func(node int, err error) bool {
	if p := r.onPeerFail.Load(); p != nil {
		return *p
	}
	return nil
}

// SetEpoch advances this node's membership epoch (masked to MaxEpoch).
// Every subsequent send — including retransmits of frames buffered under
// the old epoch, which are restamped — carries the new value; incoming
// frames stamped with an older epoch are dropped and counted. Epochs
// never regress: a lower value than the current one is ignored.
func (r *Reliable) SetEpoch(e uint32) {
	e &= MaxEpoch
	for {
		cur := r.epoch.Load()
		if e <= cur || r.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// ForgetPeer drops all reliability state for node: buffered unacked
// frames, held out-of-order receives, and sequence tracking. Call it when
// membership declares the peer dead or drained — the retransmit loop
// stops re-dialing it, and senders blocked on its window are released.
//
// The receive-dedup floor survives as a tombstone, and a final cumulative
// ack is flushed on the way out: a *drained* peer is still alive and
// retransmitting anything we have not acked (its results were a one-way
// flow, so the acks were delayed standalone ones that die with the peer
// state). The ack stops it; the tombstone keeps any retransmit already in
// flight from being delivered twice. Dead peers need neither — the epoch
// bump fences them — but both are harmless there.
func (r *Reliable) ForgetPeer(node int) {
	var ack Frame
	r.mu.Lock()
	if p, ok := r.peers[node]; ok {
		for _, e := range p.sendBuf {
			e.release()
		}
		p.sendBuf = nil
		delete(r.peers, node)
		r.gone[node] = p.recvNext
		if p.havePEs && p.recvNext > 1 {
			ack = r.ackFrame(p)
			r.stats.AcksSent++
		}
	}
	r.mu.Unlock()
	r.space.Broadcast()
	if ack.Body != nil {
		_ = r.down(&ack) // best effort; the tombstone covers a lost ack
		PutBuf(ack.Body)
	}
}

// ResetPeer clears the forgotten-peer dedup tombstone for node: a new
// incarnation (a drained node rejoining under the same number) starts its
// sequence space from 1 and must not be deduplicated against its
// predecessor's. Installed on the address-update path — a new incarnation
// always announces a new address.
func (r *Reliable) ResetPeer(node int) {
	r.mu.Lock()
	delete(r.gone, node)
	r.mu.Unlock()
}

// Stats returns a snapshot of the repair counters.
func (r *Reliable) Stats() ReliableStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Instrument registers the layer's repair counters on reg as collection-
// time reads of Stats() — the hot path keeps its single stats mutex and
// pays nothing extra. Reconnects are counted by the underlying TCP device
// (vmi_tcp_reconnects_total); this layer's counters cover what it
// repaired.
func (r *Reliable) Instrument(reg *metrics.Registry, labels ...metrics.Label) {
	if reg == nil {
		return
	}
	stat := func(sel func(ReliableStats) int64) func() int64 {
		return func() int64 { return sel(r.Stats()) }
	}
	for _, m := range []struct {
		name string
		sel  func(ReliableStats) int64
	}{
		{"vmi_rel_data_sent_total", func(s ReliableStats) int64 { return s.DataSent }},
		{"vmi_rel_retransmits_total", func(s ReliableStats) int64 { return s.Retransmits }},
		{"vmi_rel_acks_sent_total", func(s ReliableStats) int64 { return s.AcksSent }},
		{"vmi_rel_delivered_total", func(s ReliableStats) int64 { return s.Delivered }},
		{"vmi_rel_dup_dropped_total", func(s ReliableStats) int64 { return s.DupDropped }},
		{"vmi_rel_crc_dropped_total", func(s ReliableStats) int64 { return s.CrcDropped }},
		{"vmi_rel_held_out_of_order_total", func(s ReliableStats) int64 { return s.HeldOutOfOrder }},
		{"vmi_rel_transport_errs_total", func(s ReliableStats) int64 { return s.TransportErrs }},
		{"vmi_rel_bad_headers_total", func(s ReliableStats) int64 { return s.BadHdrs }},
		{"vmi_rel_stale_epoch_dropped_total", func(s ReliableStats) int64 { return s.StaleEpochDropped }},
		{"vmi_rel_peer_failures_total", func(s ReliableStats) int64 { return s.PeerFailures }},
		{"vmi_rel_window_stalls_total", func(s ReliableStats) int64 { return s.WindowStalls }},
		{"vmi_rel_window_stall_ns_total", func(s ReliableStats) int64 { return s.WindowStallNanos }},
	} {
		reg.CounterFunc(m.name, stat(m.sel), labels...)
	}
}

// Outstanding reports unacked frames buffered for node.
func (r *Reliable) Outstanding(node int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.peers[node]; ok {
		return len(p.sendBuf)
	}
	return 0
}

func (r *Reliable) peer(node int) *relPeer {
	p, ok := r.peers[node]
	if !ok {
		p = &relPeer{node: node, nextSeq: 1, recvNext: 1, heldRecv: make(map[uint64]*Frame)}
		// Resume the dedup floor of a forgotten incarnation: late
		// retransmits from a drained peer must re-ack, not re-deliver.
		if floor, gone := r.gone[node]; gone && floor > p.recvNext {
			p.recvNext = floor
		}
		r.peers[node] = p
	}
	return p
}

// fail records the terminal error and fires the backstop handler once.
func (r *Reliable) fail(err error) {
	r.mu.Lock()
	already := r.failErr != nil
	if !already {
		r.failErr = err
	}
	r.mu.Unlock()
	r.space.Broadcast()
	if !already {
		if h := r.errh(); h != nil {
			h(err)
		}
	}
}

// onTransportErr absorbs asynchronous TCP errors (dead peers, dropped
// connections, reader failures). The data they may have lost is still in
// the retransmit buffer; the next retransmit re-dials.
func (r *Reliable) onTransportErr(err error) {
	r.mu.Lock()
	r.stats.TransportErrs++
	r.mu.Unlock()
}

// Send implements the transport contract: sequence, buffer, and ship one
// frame. The frame and its body are copied before Send returns, so the
// caller may recycle them. Send blocks while the peer's retransmit window
// is full and returns an error only once the layer has failed terminally
// or closed.
func (r *Reliable) Send(f *Frame) error {
	node := r.tcp.route(f.Dst)
	if node == r.tcp.self {
		return r.up(f)
	}
	r.mu.Lock()
	p := r.peer(node)
	if len(p.sendBuf) >= relWindow && r.failErr == nil && !r.closed {
		// Counted on entry, timed on release; the clock is read only on
		// this blocking path.
		r.stats.WindowStalls++
		t0 := time.Now()
		for len(p.sendBuf) >= relWindow && r.failErr == nil && !r.closed {
			r.space.Wait()
		}
		r.stats.WindowStallNanos += int64(time.Since(t0))
	}
	if r.failErr != nil {
		err := r.failErr
		r.mu.Unlock()
		return err
	}
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("vmi: reliable layer closed")
	}
	p.selfPE, p.peerPE, p.havePEs = f.Src, f.Dst, true
	seq := p.nextSeq
	p.nextSeq++
	h := RelHeader{Kind: relKindData, Epoch: r.epoch.Load(), Seq: seq, Ack: p.recvNext - 1}
	body := AppendRelHeader(GetBuf(relHeaderLen + len(f.Body))[:0], h)
	body = append(body, f.Body...)
	sealRel(body)
	e := relEntryPool.Get().(*relEntry)
	e.seq, e.lastSent, e.attempts = seq, time.Now(), 0
	e.f = Frame{Src: f.Src, Dst: f.Dst, Body: body}
	e.refs.Store(2) // the buffer's reference and this first copy's
	p.sendBuf = append(p.sendBuf, e)
	p.ackDue = false // this frame piggybacks the current cumulative ack
	r.stats.DataSent++
	r.mu.Unlock()

	// Transport errors here (dial failure against a partitioned peer,
	// enqueue into a conn that just died) are repairable: the entry stays
	// buffered and the retransmit loop retries until the budget runs out.
	err := r.down(&e.f)
	e.release()
	if err != nil {
		r.mu.Lock()
		r.stats.TransportErrs++
		r.mu.Unlock()
	}
	return nil
}

// deliverWire is the terminal of the wire-side receive chain: verify,
// ack-process, deduplicate, reorder, and deliver.
func (r *Reliable) deliverWire(f *Frame) error {
	h, payload, err := DecodeRelHeader(f.Body)
	if err != nil {
		// Unparseable: corrupt in flight (retransmit repairs), or sent
		// below this layer, which every stack carries. Either way it is
		// not delivered.
		r.mu.Lock()
		r.stats.BadHdrs++
		r.mu.Unlock()
		return nil
	}
	if relCRC(f.Body) != h.CRC {
		r.mu.Lock()
		r.stats.CrcDropped++
		r.mu.Unlock()
		return nil // corrupt in flight: drop, retransmit repairs
	}
	if h.Epoch < r.epoch.Load() {
		// Fenced: the sender is behind this node's membership epoch. A
		// live survivor that simply hasn't heard of the bump yet will
		// restamp and retransmit; a zombie never learns it and stays out.
		// The stale frame's ack field is ignored too — only current-epoch
		// traffic may free retransmit entries.
		r.mu.Lock()
		r.stats.StaleEpochDropped++
		r.mu.Unlock()
		return nil
	}
	node := r.tcp.route(f.Src)
	r.mu.Lock()
	p := r.peer(node)
	r.mu.Unlock()

	p.deliverMu.Lock()
	defer p.deliverMu.Unlock()
	r.mu.Lock()
	p.peerPE, p.selfPE, p.havePEs = f.Src, f.Dst, true

	// Cumulative ack: release everything at or below h.Ack.
	if n := ackPrefix(p.sendBuf, h.Ack); n > 0 {
		for _, e := range p.sendBuf[:n] {
			e.release()
		}
		m := copy(p.sendBuf, p.sendBuf[n:])
		clear(p.sendBuf[m:])
		p.sendBuf = p.sendBuf[:m]
		r.space.Broadcast()
	}
	if h.Kind == relKindAck {
		r.mu.Unlock()
		return nil
	}

	switch {
	case h.Seq < p.recvNext: // duplicate of something already delivered
		r.stats.DupDropped++
		p.ackDue = true // re-ack so the sender stops retransmitting
		r.mu.Unlock()
		return nil
	case h.Seq > p.recvNext: // gap: hold until the missing frames arrive
		if _, dup := p.heldRecv[h.Seq]; !dup {
			held := f.Clone() // wire body is only valid during this call
			held.Body = held.Body[relHeaderLen:]
			p.heldRecv[h.Seq] = held
			r.stats.HeldOutOfOrder++
		} else {
			r.stats.DupDropped++
		}
		p.ackDue = true
		r.mu.Unlock()
		return nil
	}

	// In sequence: deliver, then drain any directly following held frames.
	p.recvNext++
	var drain []*Frame
	for {
		g, ok := p.heldRecv[p.recvNext]
		if !ok {
			break
		}
		delete(p.heldRecv, p.recvNext)
		drain = append(drain, g)
		p.recvNext++
	}
	p.ackDue = true
	r.stats.Delivered += int64(1 + len(drain))
	r.mu.Unlock()

	f.Body = payload
	if err := r.up(f); err != nil {
		return err
	}
	for _, g := range drain {
		if err := r.up(g); err != nil {
			return err
		}
	}
	return nil
}

// ackPrefix counts leading entries of buf with seq <= ack.
func ackPrefix(buf []*relEntry, ack uint64) int {
	n := 0
	for n < len(buf) && buf[n].seq <= ack {
		n++
	}
	return n
}

// rto is the timeout before retransmit attempt n+1.
func (r *Reliable) rto(attempts int) time.Duration {
	d := r.cfg.RTO
	for i := 0; i < attempts && d < r.cfg.RTOMax; i++ {
		d *= 2
	}
	if d > r.cfg.RTOMax {
		d = r.cfg.RTOMax
	}
	return d
}

// retransmitLoop rescans the send buffers and re-ships timed-out entries.
// Re-dialing a dead connection happens inside TCP.Send, so a retransmit
// after a connection drop is also the transparent reconnect.
func (r *Reliable) retransmitLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.RTO / 2)
	defer tick.Stop()
	var resend []*relEntry
	for {
		select {
		case <-r.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		ep := r.epoch.Load()
		r.mu.Lock()
		if r.failErr != nil {
			r.mu.Unlock()
			return
		}
		var exhausted error
		exhaustedNode := -1
		for _, p := range r.peers {
			for _, e := range p.sendBuf {
				if now.Sub(e.lastSent) < r.rto(e.attempts) {
					continue
				}
				if e.attempts >= relMaxRetransmits {
					// Described here: once r.mu is released an ack may
					// recycle the entry.
					exhausted = fmt.Errorf("vmi: reliable: frame %d->%d seq %d to node %d unacked after %d retransmits",
						e.f.Src, e.f.Dst, e.seq, p.node, relMaxRetransmits)
					exhaustedNode = p.node
					break
				}
				// Restamp with the current epoch: a frame buffered before
				// a bump would otherwise be fenced by every receiver. Only
				// an entry no sender is copying may be rewritten; a stale
				// one still in a copy waits for the next tick.
				if e.refs.Load() > 1 && relEpoch(e.f.Body) != ep {
					continue
				}
				restampEpoch(e.f.Body, ep)
				e.attempts++
				e.lastSent = now
				e.refs.Add(1)
				resend = append(resend, e)
			}
			if exhausted != nil {
				break
			}
		}
		r.stats.Retransmits += int64(len(resend))
		r.mu.Unlock()
		if exhausted == nil {
			for _, e := range resend {
				if err := r.down(&e.f); err != nil {
					r.mu.Lock()
					r.stats.TransportErrs++
					r.mu.Unlock()
				}
			}
		}
		for i, e := range resend {
			e.release()
			resend[i] = nil
		}
		resend = resend[:0]
		if exhausted != nil {
			if h := r.peerFailHandler(); h != nil && h(exhaustedNode, exhausted) {
				// Membership claimed the failure: the peer is dead to us.
				// Drop its state and keep serving the surviving peers.
				r.ForgetPeer(exhaustedNode)
				r.mu.Lock()
				r.stats.PeerFailures++
				r.mu.Unlock()
				continue
			}
			r.fail(exhausted)
			return
		}
	}
}

// ackLoop emits standalone cumulative acks for peers whose received
// frames have not been acked by reverse traffic within relAckDelay.
func (r *Reliable) ackLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(relAckDelay)
	defer tick.Stop()
	var acks []Frame
	for {
		select {
		case <-r.done:
			return
		case <-tick.C:
		}
		r.mu.Lock()
		if r.failErr != nil {
			r.mu.Unlock()
			return
		}
		for _, p := range r.peers {
			if !p.ackDue || !p.havePEs {
				continue
			}
			p.ackDue = false
			acks = append(acks, r.ackFrame(p))
		}
		r.stats.AcksSent += int64(len(acks))
		r.mu.Unlock()
		for i := range acks {
			_ = r.down(&acks[i]) // ack loss is repaired by retransmit-then-re-ack
			PutBuf(acks[i].Body)
			acks[i] = Frame{}
		}
		acks = acks[:0]
	}
}

// ackFrame builds a standalone cumulative ack to peer p, its body drawn
// from the buffer pool: the sender returns it with PutBuf once down has
// returned. Called with r.mu held.
func (r *Reliable) ackFrame(p *relPeer) Frame {
	body := AppendRelHeader(GetBuf(relHeaderLen)[:0],
		RelHeader{Kind: relKindAck, Epoch: r.epoch.Load(), Ack: p.recvNext - 1})
	sealRel(body)
	return Frame{Src: p.selfPE, Dst: p.peerPE, Body: body}
}

// Close stops the retransmit and ack goroutines. It does not close the
// underlying TCP; the owner does that separately.
func (r *Reliable) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.done)
	r.space.Broadcast()
	r.wg.Wait()
}
