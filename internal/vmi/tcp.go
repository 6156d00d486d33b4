package vmi

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gridmdo/internal/metrics"
)

// TCP is the wide-area (and general inter-process) terminal device: frames
// are serialized with the VMI framing and carried over TCP connections
// between nodes. A "node" is one OS process hosting a contiguous set of
// PEs; the route function maps a destination PE to its node ID.
//
// Connections are established lazily on first send and are reused in both
// directions: an accepted connection is also registered as the outgoing
// path to the peer that dialed in, so a pair of nodes shares one
// connection per direction of first use.
//
// Writes are coalesced with a flush-on-idle policy: Send serializes the
// frame into the connection's pending buffer and returns; a per-connection
// writer goroutine drains the buffer in single large writes, so a burst of
// frames pays one syscall and the socket is flushed exactly when the send
// queue goes idle rather than once per frame. Frames received from the
// wire are decoded with zero-copy bodies: the frame passed to onRecv (and
// its Body) is valid only for the duration of the call, and receivers that
// retain data must copy (Frame.Clone does).
type TCP struct {
	self   int
	addrs  map[int]string
	route  func(pe int32) int
	onRecv RecvFunc

	ln net.Listener

	mu     sync.Mutex
	out    map[int]*tcpConn
	closed bool
	done   chan struct{} // closed by Close; aborts dial backoff waits

	// aux tracks accepted connections that were NOT registered in out
	// (the peer slot was already taken — e.g. two nodes dialed each other
	// simultaneously). They are read-only from this side, but Close must
	// still close them: their readLoops would otherwise block until the
	// peer closes, and a peer doing the same produces a shutdown deadlock.
	aux map[net.Conn]struct{}

	wg sync.WaitGroup

	// errHandler receives asynchronous reader and writer errors; nil means
	// ignore (connection teardown during shutdown is normal). Because Send
	// returns before the coalesced write happens, peer failures after
	// enqueue reach the sender only through it: the reliability layer
	// installs it and absorbs them, and its retransmits repair the loss.
	errHandler atomic.Pointer[func(error)]

	// dialGate, if set, is consulted before dialing a node with no live
	// connection; false vetoes the dial. Membership installs it so drained
	// and dead peers are not redialed forever by retransmits (the backoff
	// loop for an exited process otherwise spins until the budget runs
	// out). Frames already connected keep flowing regardless.
	dialGate atomic.Pointer[func(node int) bool]

	// OnControl, if non-nil, receives control frames (Dst < 0) other
	// than the connection hello (e.g. coordinator shutdown announcements).
	OnControl func(*Frame)

	// DialAttempts bounds the retries of a node's first connection
	// (exponential backoff, ~9s total at the default of 10), so peers may
	// start in any order. Re-dials of a node that was connected before make
	// one attempt: the reliability layer's retransmit schedule is their
	// retry loop. Set lower to fail fast in tests.
	DialAttempts int

	// met carries the transport's metric handles. Every handle is nil-safe,
	// so an uninstrumented transport pays one branch per update. Installed
	// by ChainBuilder (or Instrument) before any connection exists.
	met tcpMetrics

	// everConnected tracks nodes a connection was ever established to, so
	// a later successful dial counts as a reconnect. Guarded by mu.
	everConnected map[int]bool
}

// tcpMetrics is the transport's handle set. The zero value (all nil) is a
// valid no-op.
type tcpMetrics struct {
	framesOut, framesIn *metrics.Counter
	bytesOut, bytesIn   *metrics.Counter
	stalls              *metrics.Counter // sender blocked on the coalescing buffer cap
	dials, reconnects   *metrics.Counter
	batchBytes          *metrics.Histogram // coalesced write sizes
}

// Instrument registers the transport's series on reg and installs the
// handles. Call before Listen or the first Send; ChainBuilder does this
// when built with metrics.
func (t *TCP) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	node := fmt.Sprint(t.self)
	l := metrics.L("node", node)
	t.met = tcpMetrics{
		framesOut:  reg.Counter("vmi_tcp_frames_out_total", l),
		framesIn:   reg.Counter("vmi_tcp_frames_in_total", l),
		bytesOut:   reg.Counter("vmi_tcp_bytes_out_total", l),
		bytesIn:    reg.Counter("vmi_tcp_bytes_in_total", l),
		stalls:     reg.Counter("vmi_tcp_backpressure_stalls_total", l),
		dials:      reg.Counter("vmi_tcp_dials_total", l),
		reconnects: reg.Counter("vmi_tcp_reconnects_total", l),
		batchBytes: reg.Histogram("vmi_tcp_write_batch_bytes", metrics.BytesBuckets, l),
	}
}

// Control codes. A frame whose Dst is negative is a control frame: it
// bypasses PE routing and the receive chain (and so the Reliable layer),
// and the TCP device hands it to OnControl.
const (
	// ControlHello marks the first frame written on a dialed connection;
	// its Src carries the dialer's node ID.
	ControlHello int32 = -1
	// ControlShutdown marks a coordinator's shutdown announcement.
	ControlShutdown int32 = -2
	// ControlMembership marks cluster-membership control frames (join
	// requests, member-table broadcasts, drain notices); the body is a
	// core membership wire message.
	ControlMembership int32 = -3
	// ControlTelemetry marks telemetry reports: periodic metric deltas
	// and trace-span digests a node's telemetry agent ships to the
	// cluster collector; the body is a telemetry wire report. Telemetry
	// frames ride the raw control path — deliberately below the Reliable
	// layer, so a lossy link degrades the cluster view instead of
	// competing with application retransmits; the collector tolerates
	// gaps.
	ControlTelemetry int32 = -4
)

// maxPendingBytes bounds a connection's coalescing buffer; senders block
// (backpressure) until the writer drains below it.
const maxPendingBytes = 4 << 20

// closeFlushTimeout caps how long a closing connection's writer may spend
// flushing its remaining pending bytes to a possibly-dead peer.
const closeFlushTimeout = 2 * time.Second

// tcpConn is one direction-of-use connection with its write coalescer.
type tcpConn struct {
	c net.Conn

	mu      sync.Mutex
	hasData *sync.Cond // writer waits here for pending bytes
	drained *sync.Cond // backpressured senders wait here for the writer
	pending []byte     // frames encoded and awaiting the writer
	spare   []byte     // writer's swap buffer, recycled each drain
	closed  bool
	err     error // first write error, returned to later senders

	met tcpMetrics // owner transport's handles; zero value is a no-op
}

func newTCPConn(c net.Conn, met tcpMetrics) *tcpConn {
	tc := &tcpConn{c: c, met: met, pending: GetBuf(0)[:0], spare: GetBuf(0)[:0]}
	tc.hasData = sync.NewCond(&tc.mu)
	tc.drained = sync.NewCond(&tc.mu)
	return tc
}

// enqueue appends the frame's encoding to the pending buffer and wakes the
// writer if it was idle. The frame and its Body are fully copied, so the
// caller may reuse them on return.
func (tc *tcpConn) enqueue(f *Frame) error {
	tc.mu.Lock()
	if len(tc.pending) >= maxPendingBytes && !tc.closed {
		tc.met.stalls.Inc()
	}
	for len(tc.pending) >= maxPendingBytes && !tc.closed {
		tc.drained.Wait()
	}
	if tc.closed {
		err := tc.err
		tc.mu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return err
	}
	wasIdle := len(tc.pending) == 0
	before := len(tc.pending)
	tc.reserve(f.EncodedLen())
	tc.pending = f.AppendEncode(tc.pending)
	tc.met.framesOut.Inc()
	tc.met.bytesOut.Add(int64(len(tc.pending) - before))
	tc.mu.Unlock()
	if wasIdle {
		tc.hasData.Signal()
	}
	return nil
}

// reserve makes room for n more pending bytes. The buffer grows through
// the pool's size classes, and the outgrown one goes back to the pool, so
// a new connection reuses the buffers an old one grew instead of growing
// its own. Called with tc.mu held.
func (tc *tcpConn) reserve(n int) {
	if len(tc.pending)+n <= cap(tc.pending) {
		return
	}
	grown := GetBuf(len(tc.pending) + n)[:len(tc.pending)]
	copy(grown, tc.pending)
	PutBuf(tc.pending)
	tc.pending = grown
}

// recycle returns both coalescing buffers to the pool when the writer
// exits. Nothing appends to a closed connection, so they are unreachable
// from then on. Called with tc.mu held.
func (tc *tcpConn) recycle() {
	PutBuf(tc.pending)
	PutBuf(tc.spare)
	tc.pending, tc.spare = nil, nil
}

// enqueueRaw appends arbitrary bytes to the pending buffer, bypassing the
// frame encoder. It exists for fault injection: bytes that do not parse as
// a frame exercise the peer's reader-error path.
func (tc *tcpConn) enqueueRaw(b []byte) error {
	tc.mu.Lock()
	if tc.closed {
		err := tc.err
		tc.mu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return err
	}
	wasIdle := len(tc.pending) == 0
	tc.reserve(len(b))
	tc.pending = append(tc.pending, b...)
	tc.mu.Unlock()
	if wasIdle {
		tc.hasData.Signal()
	}
	return nil
}

// shutdown marks the connection closed; the writer flushes what is already
// pending (bounded by closeFlushTimeout) and then closes the socket.
func (tc *tcpConn) shutdown() {
	tc.mu.Lock()
	tc.closed = true
	tc.c.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
	tc.mu.Unlock()
	tc.hasData.Signal()
	tc.drained.Broadcast()
}

// writeLoop drains the pending buffer. Each pass swaps the buffer out and
// writes it whole, so frames queued during a write coalesce into the next
// one; the socket goes idle only when the queue is empty.
func (tc *tcpConn) writeLoop(onErr func(error)) {
	tc.mu.Lock()
	for {
		for len(tc.pending) == 0 && !tc.closed {
			tc.hasData.Wait()
		}
		if len(tc.pending) == 0 { // closed and drained
			tc.recycle()
			tc.mu.Unlock()
			tc.c.Close()
			return
		}
		buf := tc.pending
		tc.pending = tc.spare[:0]
		tc.mu.Unlock()

		tc.met.batchBytes.Observe(int64(len(buf)))
		_, err := tc.c.Write(buf)

		tc.mu.Lock()
		tc.spare = buf
		tc.drained.Broadcast()
		if err != nil {
			if tc.err == nil {
				tc.err = err
			}
			wasClosed := tc.closed
			tc.closed = true
			tc.recycle()
			tc.mu.Unlock()
			tc.c.Close()
			tc.drained.Broadcast()
			if !wasClosed && onErr != nil {
				onErr(err)
			}
			return
		}
	}
}

// NewTCP builds a TCP transport for node self. addrs maps node ID to
// listen address; route maps a PE to its owning node; onRecv is the local
// receive chain entry for frames arriving from remote nodes.
func NewTCP(self int, addrs map[int]string, route func(pe int32) int, onRecv RecvFunc) *TCP {
	return &TCP{
		self:          self,
		addrs:         addrs,
		route:         route,
		onRecv:        onRecv,
		out:           make(map[int]*tcpConn),
		aux:           make(map[net.Conn]struct{}),
		done:          make(chan struct{}),
		everConnected: make(map[int]bool),
	}
}

// noteConnected records a (re-)established connection to node. Callers
// hold t.mu.
func (t *TCP) noteConnected(node int) {
	if t.everConnected[node] {
		t.met.reconnects.Inc()
	}
	t.everConnected[node] = true
}

// setRecv replaces the terminal receive function for data frames arriving
// off the wire. It must be called before any connection is established;
// the chain builder uses it to attach the receive chain above the socket.
func (t *TCP) setRecv(fn RecvFunc) { t.onRecv = fn }

// Listen starts accepting connections on this node's configured address.
// It returns the bound address (useful when the configured address has
// port 0).
func (t *TCP) Listen() (string, error) {
	addr, ok := t.addrs[t.self]
	if !ok {
		return "", fmt.Errorf("vmi: node %d has no configured address", t.self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("vmi: listen %s: %w", addr, err)
	}
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop()
	return ln.Addr().String(), nil
}

// Addr returns the bound listen address, or "" before Listen.
func (t *TCP) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// SetAddr updates the known address for a node (used when nodes exchange
// dynamically bound ports during startup).
func (t *TCP) SetAddr(node int, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs[node] = addr
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.serveConn(c)
	}
}

// startWriter launches a connection's write coalescer under the transport's
// WaitGroup.
func (t *TCP) startWriter(tc *tcpConn) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tc.writeLoop(func(err error) {
			if h := t.errh(); h != nil && !t.isClosed() {
				h(fmt.Errorf("vmi: tcp write: %w", err))
			}
			t.evict(tc.c)
		})
	}()
}

func (t *TCP) serveConn(c net.Conn) {
	defer t.wg.Done()
	fr := newFrameReader(c)
	defer fr.release()

	var hello Frame
	if err := fr.Next(&hello); err != nil || hello.Dst != ControlHello {
		c.Close()
		return
	}
	peer := int(hello.Src)

	// Register the accepted connection as the outgoing path to the peer
	// unless one already exists.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return
	}
	if _, ok := t.out[peer]; !ok {
		tc := newTCPConn(c, t.met)
		t.out[peer] = tc
		t.noteConnected(peer)
		t.startWriter(tc)
	} else {
		t.aux[c] = struct{}{}
	}
	t.mu.Unlock()

	t.readLoop(fr, c)
	t.evict(c)
	t.mu.Lock()
	delete(t.aux, c)
	t.mu.Unlock()
}

// evict drops a dead connection from the outgoing table so the next send
// re-dials instead of writing into a closed socket.
func (t *TCP) evict(c net.Conn) {
	t.mu.Lock()
	var dead *tcpConn
	for node, tc := range t.out {
		if tc.c == c {
			dead = tc
			delete(t.out, node)
		}
	}
	t.mu.Unlock()
	if dead != nil {
		dead.shutdown()
	}
}

// DropConn severs the live connection to node the way a WAN fault would:
// the socket closes immediately (bytes sitting in the coalescing buffer
// are lost), the connection is evicted so the next send re-dials, and the
// error handler fires as it does for an asynchronous write failure. The
// reliability layer above absorbs it and retransmits the lost frames over
// a fresh connection. Reports whether a connection to node existed.
func (t *TCP) DropConn(node int) bool {
	t.mu.Lock()
	tc, ok := t.out[node]
	if ok {
		delete(t.out, node)
	}
	t.mu.Unlock()
	if !ok {
		return false
	}
	tc.c.Close() // hard close first: pending bytes are lost, not flushed
	tc.shutdown()
	if h := t.errh(); h != nil && !t.isClosed() {
		h(fmt.Errorf("vmi: connection to node %d dropped by fault injection", node))
	}
	return true
}

// CorruptWire injects garbage bytes into the outgoing byte stream to node,
// simulating wire-level corruption that breaks the VMI framing. The peer's
// reader fails on the bad magic and reports through its error handler.
func (t *TCP) CorruptWire(node int) error {
	tc, err := t.connTo(node)
	if err != nil {
		return err
	}
	return tc.enqueueRaw([]byte{0xDE, 0xAD, 0xBE, 0xEF, 'n', 'o', 'i', 's', 'e'})
}

// readLoop decodes frames off the connection and hands them up. Bodies are
// zero-copy views into the reader's block buffer, valid only during the
// delivery call.
func (t *TCP) readLoop(fr *frameReader, c net.Conn) {
	var f Frame
	for {
		if err := fr.Next(&f); err == nil {
			t.met.framesIn.Inc()
			t.met.bytesIn.Add(int64(f.EncodedLen()))
		} else {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !t.isClosed() {
				if h := t.errh(); h != nil {
					h(fmt.Errorf("vmi: tcp read: %w", err))
				}
			}
			c.Close()
			return
		}
		if f.Dst < 0 {
			if h := t.OnControl; h != nil {
				// Control handlers may retain the frame; clone it off the
				// shared read buffer.
				h(f.Clone())
			}
			continue
		}
		if err := t.onRecv(&f); err != nil {
			if h := t.errh(); h != nil {
				h(fmt.Errorf("vmi: tcp deliver: %w", err))
			}
		}
	}
}

// setErrHandler installs the asynchronous error handler (the reliability
// layer, at construction).
func (t *TCP) setErrHandler(h func(error)) {
	t.errHandler.Store(&h)
}

// errh returns the installed error handler, or nil.
func (t *TCP) errh() func(error) {
	if p := t.errHandler.Load(); p != nil {
		return *p
	}
	return nil
}

// ErrDialGated marks a dial vetoed by the membership gate installed with
// SetDialGate (the target is drained or dead, not merely unreachable).
var ErrDialGated = errors.New("dial gated by membership")

// SetDialGate installs (or, with nil, removes) the membership dial gate;
// see the dialGate field. Safe to call at any time.
func (t *TCP) SetDialGate(fn func(node int) bool) {
	if fn == nil {
		t.dialGate.Store(nil)
		return
	}
	t.dialGate.Store(&fn)
}

func (t *TCP) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

func (t *TCP) connTo(node int) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, net.ErrClosed
	}
	if tc, ok := t.out[node]; ok {
		t.mu.Unlock()
		return tc, nil
	}
	addr, ok := t.addrs[node]
	redial := t.everConnected[node]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("vmi: no address for node %d", node)
	}
	if g := t.dialGate.Load(); g != nil && !(*g)(node) {
		return nil, fmt.Errorf("vmi: %w: node %d", ErrDialGated, node)
	}

	attempts := t.DialAttempts
	switch {
	case redial:
		attempts = 1 // the retransmit schedule retries, not the dialer
	case attempts <= 0:
		attempts = 10
	}
	c, err := dialRetry(addr, attempts, t.done)
	if err != nil {
		return nil, fmt.Errorf("vmi: dial node %d (%s): %w", node, addr, err)
	}
	t.met.dials.Inc()
	tc := newTCPConn(c, t.met)
	t.startWriter(tc)
	if err := tc.enqueue(&Frame{Src: int32(t.self), Dst: ControlHello}); err != nil {
		tc.shutdown()
		return nil, err
	}

	t.mu.Lock()
	if prior, ok := t.out[node]; ok {
		// Lost a dial race; keep the registered one.
		t.mu.Unlock()
		tc.shutdown()
		return prior, nil
	}
	t.out[node] = tc
	t.noteConnected(node)
	t.mu.Unlock()

	// Frames may flow back on this dialed connection too.
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		fr := newFrameReader(c)
		defer fr.release()
		t.readLoop(fr, c)
		t.evict(c)
	}()
	return tc, nil
}

// dialBackoff is the wait before retry attempt+1: 50ms doubling per
// attempt, capped at 2s.
func dialBackoff(attempt int) time.Duration {
	const base, max = 50 * time.Millisecond, 2 * time.Second
	if attempt >= 6 { // base<<6 > max; also keeps the shift in range
		return max
	}
	d := base << uint(attempt)
	if d > max {
		return max
	}
	return d
}

// dialRetry dials with exponential backoff so peers that start in any
// order still connect (a co-allocated job's processes rarely come up
// simultaneously). It gives up after ~9 seconds at the default attempt
// count, or immediately — even mid-backoff — when done closes, so a
// transport shutting down never sits out a sleep.
func dialRetry(addr string, attempts int, done <-chan struct{}) (net.Conn, error) {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		select {
		case <-done:
			return nil, net.ErrClosed
		default:
		}
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if attempt == attempts-1 {
			break // no point sleeping after the final failure
		}
		timer.Reset(dialBackoff(attempt))
		select {
		case <-timer.C:
		case <-done:
			timer.Stop()
			return nil, net.ErrClosed
		}
	}
	return nil, lastErr
}

// Send implements the terminal SendFunc of a wide-area send chain. The
// frame must carry a serialized Body (Obj is not transmitted). The body is
// copied into the connection's coalescing buffer before Send returns, so
// callers may recycle it; transport errors after that point are reported
// asynchronously through the error handler.
func (t *TCP) Send(f *Frame) error {
	if f.Body == nil && f.Obj != nil {
		return fmt.Errorf("vmi: tcp send of frame %d->%d with unserialized payload", f.Src, f.Dst)
	}
	node := t.route(f.Dst)
	if node == t.self {
		// Self-node frames short-circuit into the local receive chain.
		return t.onRecv(f)
	}
	tc, err := t.connTo(node)
	if err != nil {
		return err
	}
	if err := tc.enqueue(f); err != nil {
		return fmt.Errorf("vmi: tcp send to node %d: %w", node, err)
	}
	return nil
}

// SendControl sends a control frame directly to a node (bypassing PE
// routing). Used by coordinators to announce shutdown. f.Dst must be a
// negative Control* code: a frame with a PE destination would reach the
// peer's receive chain, not its control handler.
func (t *TCP) SendControl(node int, f *Frame) error {
	if f.Dst >= 0 {
		return fmt.Errorf("vmi: control frame to node %d has PE destination %d, want a negative Control* code", node, f.Dst)
	}
	if node == t.self {
		if h := t.OnControl; h != nil {
			h(f)
		}
		return nil
	}
	tc, err := t.connTo(node)
	if err != nil {
		return err
	}
	return tc.enqueue(f)
}

// Close shuts the listener and all connections down. Each connection's
// writer flushes frames already queued (bounded by closeFlushTimeout)
// before its socket closes, so shutdown announcements sent just before
// Close still reach their peers.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.done)
	conns := make([]*tcpConn, 0, len(t.out))
	for _, tc := range t.out {
		conns = append(conns, tc)
	}
	t.out = make(map[int]*tcpConn)
	raw := make([]net.Conn, 0, len(t.aux))
	for c := range t.aux {
		raw = append(raw, c)
	}
	t.aux = make(map[net.Conn]struct{})
	t.mu.Unlock()

	if t.ln != nil {
		t.ln.Close()
	}
	for _, tc := range conns {
		tc.shutdown()
	}
	// Unregistered accepted connections have no writer to flush; close
	// the sockets directly so their readLoops return.
	for _, c := range raw {
		c.Close()
	}
	t.wg.Wait()
	return nil
}
