package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridmdo/internal/metrics"
	"gridmdo/internal/vmi"
)

// Elastic cluster membership: a coordinator-owned versioned member table
// replicated to every process over VMI control frames, with an epoch
// number that fences traffic from processes declared dead.
//
// The protocol is deliberately small. All mutation happens on one
// coordinator node (node 0 in gridnode deployments); every other process
// only learns the table through coordinator broadcasts and applies the
// highest version it has seen. Control frames bypass the Reliable layer
// (they are the channel that *defines* liveness, so they cannot depend on
// it), which means a broadcast can be lost with a dying connection — the
// coordinator therefore re-broadcasts the current table on a short period
// (anti-entropy) and receivers deduplicate by version.
//
// Member lifecycle:
//
//	Joining  -> Active            (coordinator accepts a -join request)
//	Active   -> Draining -> Left  (SIGTERM drain: stop placing work, let
//	                               outstanding work finish, evacuate)
//	any      -> Dead              (Reliable retransmit budget exhausted)
//
// A death bumps the cluster epoch. The new epoch is stamped on every
// subsequently sent Reliable frame; survivors restamp retransmissions, so
// traffic between live nodes keeps flowing, while frames from the dead
// process (which still carries the old epoch) are counted and dropped at
// the Reliable layer before any application code can see them.

// MemberState is a member's position in the lifecycle.
type MemberState uint8

const (
	// MemberJoining: the process announced itself but the coordinator has
	// not yet admitted it.
	MemberJoining MemberState = iota
	// MemberActive: full participant; placement may target its PEs.
	MemberActive
	// MemberDraining: finishing outstanding work; no new work is placed on
	// it, and the program reports when it is clear (NotifyDrained).
	MemberDraining
	// MemberDead: declared failed; fenced by epoch bump, elements rebuilt
	// fresh on survivors.
	MemberDead
	// MemberLeft: drained cleanly and allowed to exit.
	MemberLeft
)

func (s MemberState) String() string {
	switch s {
	case MemberJoining:
		return "joining"
	case MemberActive:
		return "active"
	case MemberDraining:
		return "draining"
	case MemberDead:
		return "dead"
	case MemberLeft:
		return "left"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Member is one process's entry in the member table.
type Member struct {
	Node  int32
	State MemberState
	// Addr is the member's VMI listen address, carried in the table so
	// that processes that started before a joiner existed learn where to
	// dial it.
	Addr string
}

// MemberTable is the replicated membership view. Version increases with
// every coordinator mutation; Epoch increases only on declared deaths and
// fences stale traffic at the Reliable layer. Members is sorted by Node.
type MemberTable struct {
	Version uint64
	Epoch   uint32
	Members []Member
}

// clone returns a deep copy (the Members slice is shared state otherwise).
func (t *MemberTable) clone() MemberTable {
	c := *t
	c.Members = append([]Member(nil), t.Members...)
	return c
}

// find returns the index of node in Members, or -1.
func (t *MemberTable) find(node int32) int {
	for i := range t.Members {
		if t.Members[i].Node == node {
			return i
		}
	}
	return -1
}

// StateOf reports a node's state and whether the node is in the table.
func (t *MemberTable) StateOf(node int) (MemberState, bool) {
	if i := t.find(int32(node)); i >= 0 {
		return t.Members[i].State, true
	}
	return 0, false
}

// Membership wire codec -----------------------------------------------------
//
// Control-frame payloads are PUP traversals under a two-byte magic and a
// format version. Decoders are strict — unknown magic, short input,
// out-of-range fields and trailing bytes all fail, wrapping ErrBadWire —
// so a corrupted control frame is rejected rather than half-applied.

const (
	memberTableMagic0 = 'M'
	memberTableMagic1 = 'T'
	memberMsgMagic0   = 'M'
	memberMsgMagic1   = 'M'
	memberWireVersion = 1
)

// membershipOp discriminates membership control messages.
type membershipOp uint8

const (
	// memberOpJoin: joiner -> coordinator. From is the joiner, Addr its
	// listen address.
	memberOpJoin membershipOp = iota + 1
	// memberOpTable: coordinator -> everyone. Table carries the view.
	memberOpTable
	// memberOpDrainReq: draining process -> coordinator (SIGTERM).
	memberOpDrainReq
	// memberOpDrainDone: any process that observed the drain finish ->
	// coordinator. Node is the drained member.
	memberOpDrainDone
	// memberOpDeadReport: worker -> coordinator after its Reliable layer
	// exhausted the retransmit budget toward Node.
	memberOpDeadReport
)

// MembershipMsg is the payload of a ControlMembership frame.
type MembershipMsg struct {
	Op   membershipOp
	From int32        // sending node
	Node int32        // subject node (join/drain/death ops)
	Addr string       // join: the joiner's listen address
	Tbl  *MemberTable // table op only
}

// maxMembers caps a decoded table's member count, before allocation.
const maxMembers = 1 << 16

// pupMemberHeader moves a control payload's two magic bytes and format
// version. Each is a uvarint of one byte, so the header is the three raw
// bytes it always was; unpacking fails on anything else.
func pupMemberHeader(p *PUP, magic0, magic1 byte, what string) {
	h := [3]byte{magic0, magic1, memberWireVersion}
	for i := range h {
		PUPUvarint(p, &h[i])
	}
	if p.Unpacking() && p.Err() == nil {
		if h[0] != magic0 || h[1] != magic1 {
			p.Errorf("bad %s magic", what)
		} else if h[2] != memberWireVersion {
			p.Errorf("%s version %d", what, h[2])
		}
	}
}

// PUP moves the table in wire form: header, version, epoch, then the
// members, which unpacking checks are strictly increasing by node and in
// a known state.
func (t *MemberTable) PUP(p *PUP) {
	pupMemberHeader(p, memberTableMagic0, memberTableMagic1, "member-table")
	p.Uvarint(&t.Version)
	PUPUvarint(p, &t.Epoch)
	if p.Unpacking() && p.Err() == nil && t.Epoch > vmi.MaxEpoch {
		p.Errorf("epoch %d exceeds 24-bit range", t.Epoch)
	}
	PUPSlice(p, &t.Members, 3, maxMembers, func(m *Member, p *PUP) {
		PUPVarint(p, &m.Node)
		PUPUvarint(p, &m.State)
		p.String(&m.Addr)
	})
	if !p.Unpacking() || p.Err() != nil {
		return
	}
	for i, m := range t.Members {
		if i > 0 && m.Node <= t.Members[i-1].Node {
			p.Errorf("member nodes not strictly increasing")
			return
		}
		if m.State > MemberLeft {
			p.Errorf("member state %d", m.State)
			return
		}
	}
}

// PUP moves the message in wire form: header, op, the two node numbers,
// the address, then a flag and the table when there is one.
func (m *MembershipMsg) PUP(p *PUP) {
	pupMemberHeader(p, memberMsgMagic0, memberMsgMagic1, "membership")
	PUPUvarint(p, &m.Op)
	if p.Unpacking() && p.Err() == nil && (m.Op < memberOpJoin || m.Op > memberOpDeadReport) {
		p.Errorf("membership op %d", m.Op)
	}
	PUPVarint(p, &m.From)
	PUPVarint(p, &m.Node)
	p.String(&m.Addr)
	hasTable := m.Tbl != nil
	p.Bool(&hasTable)
	if hasTable {
		if p.Unpacking() {
			m.Tbl = new(MemberTable)
		}
		m.Tbl.PUP(p)
	}
}

// AppendMemberTable appends t in wire form.
func AppendMemberTable(dst []byte, t *MemberTable) []byte {
	return appendControl(dst, t)
}

// DecodeMemberTable parses a wire-form member table. Trailing bytes are an
// error.
func DecodeMemberTable(b []byte) (*MemberTable, error) {
	var t MemberTable
	if err := decodeControl(&t, b); err != nil {
		return nil, err
	}
	return &t, nil
}

// AppendMembershipMsg appends m in wire form.
func AppendMembershipMsg(dst []byte, m *MembershipMsg) []byte {
	return appendControl(dst, m)
}

// DecodeMembershipMsg parses a wire-form membership message. Trailing
// bytes are an error.
func DecodeMembershipMsg(b []byte) (*MembershipMsg, error) {
	var m MembershipMsg
	if err := decodeControl(&m, b); err != nil {
		return nil, err
	}
	return &m, nil
}

// appendControl packs a membership payload. Packing validates nothing, so
// an error means the PUP method is asymmetric — a bug, not bad input.
func appendControl(dst []byte, v PUPable) []byte {
	b, err := PUPPack(v)
	if err != nil {
		panic(err)
	}
	return append(dst, b...)
}

func decodeControl(v PUPable, b []byte) error {
	if err := PUPUnpack(v, b); err != nil {
		return fmt.Errorf("%w: %v", ErrBadWire, err)
	}
	return nil
}

// Manager --------------------------------------------------------------------

// MembershipConfig configures a Membership manager. Every process of a
// run constructs one with the same Coordinator and the same Initial set;
// joiners list the members they know about (at minimum the coordinator)
// and add themselves with RequestJoin.
type MembershipConfig struct {
	// Node is this process.
	Node int
	// Coordinator owns the table. Its death is not survivable (the
	// dispatcher and the table would both be lost) — that is the
	// documented single point of failure of this protocol.
	Coordinator int
	// Stack is the process's VMI stack; the manager sends control frames
	// through it and installs the epoch, dial gate, and peer-failure
	// handler on it.
	Stack *vmi.Stack
	// NodeOf maps a PE to its owning process (same function the runtime
	// uses); NumPE is the full PE space.
	NodeOf func(pe int) int
	NumPE  int
	// Initial is the starting member set. All founding processes must pass
	// identical sets (it becomes table version 1 everywhere).
	Initial []Member
	// Interval is the coordinator's anti-entropy re-broadcast period.
	// Control frames bypass the Reliable layer, so a lost broadcast is
	// repaired only by this timer. Zero means 200ms.
	Interval time.Duration
	// OnChange, if non-nil, is called with a table snapshot after every
	// applied change, after runtime-level recovery for that change has
	// been queued. Runs on the manager's apply path — keep it brief and
	// do not call back into mutating Membership methods synchronously.
	OnChange func(t MemberTable)
	// Logf, if non-nil, receives protocol progress lines.
	Logf func(format string, args ...any)
}

// Membership tracks cluster membership for one process. Construct it with
// NewMembership before the runtime and pass it to NewRuntime via
// WithMembership, which binds the runtime-side recovery hooks.
type Membership struct {
	cfg MembershipConfig

	// applyMu serializes table application (and coordinator mutation), so
	// the side effects of version N are complete before version N+1's
	// begin. mu guards only the table snapshot for concurrent readers.
	applyMu sync.Mutex
	mu      sync.Mutex
	tbl     MemberTable

	rt *Runtime // bound by WithMembership during NewRuntime

	activeCh chan struct{} // closed when the local node becomes Active
	leftCh   chan struct{} // closed when the local node becomes Left
	actOnce  sync.Once
	leftOnce sync.Once

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// counters (metrics / tests)
	joins       atomic.Int64
	drains      atomic.Int64
	deaths      atomic.Int64
	evacuated   atomic.Int64 // elements re-homed off dead or drained nodes
	staleTables atomic.Int64
	broadcasts  atomic.Int64
}

// NewMembership builds a manager. The initial member set becomes table
// version 1; the epoch starts at 1 so that epoch 0 ("no fencing") is never
// a live cluster epoch.
func NewMembership(cfg MembershipConfig) (*Membership, error) {
	if cfg.Stack == nil {
		return nil, fmt.Errorf("core: membership needs a vmi stack")
	}
	if cfg.NodeOf == nil {
		return nil, fmt.Errorf("core: membership needs NodeOf")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 200 * time.Millisecond
	}
	m := &Membership{
		cfg:      cfg,
		activeCh: make(chan struct{}),
		leftCh:   make(chan struct{}),
		stopCh:   make(chan struct{}),
	}
	m.tbl = MemberTable{Version: 1, Epoch: 1, Members: append([]Member(nil), cfg.Initial...)}
	sort.Slice(m.tbl.Members, func(i, j int) bool { return m.tbl.Members[i].Node < m.tbl.Members[j].Node })
	if st, ok := m.tbl.StateOf(cfg.Node); ok && st == MemberActive {
		m.actOnce.Do(func() { close(m.activeCh) })
	}
	// The stack-side hooks that do not depend on the runtime install now,
	// so fencing is live before the first application frame.
	cfg.Stack.SetEpoch(m.tbl.Epoch)
	cfg.Stack.SetDialGate(m.allowDial)
	cfg.Stack.Reliable().SetOnPeerFail(m.PeerFailed)
	for _, mb := range m.tbl.Members {
		if mb.Addr != "" && int(mb.Node) != cfg.Node {
			cfg.Stack.SetAddr(int(mb.Node), mb.Addr)
		}
	}
	if m.isCoordinator() {
		m.wg.Add(1)
		go m.antiEntropyLoop()
	}
	return m, nil
}

func (m *Membership) isCoordinator() bool { return m.cfg.Node == m.cfg.Coordinator }

func (m *Membership) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// bind attaches the runtime (called by NewRuntime via WithMembership).
// Taken under applyMu: a control frame can arrive between Listen and
// NewRuntime, and the apply path reads rt under the same lock.
func (m *Membership) bind(rt *Runtime) {
	m.applyMu.Lock()
	m.rt = rt
	m.applyMu.Unlock()
}

// Close stops the manager's goroutines. It does not mutate the table.
func (m *Membership) Close() {
	m.stopOnce.Do(func() { close(m.stopCh) })
	m.wg.Wait()
}

// Table returns a snapshot of the current member table.
func (m *Membership) Table() MemberTable {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tbl.clone()
}

// Epoch reports the current cluster epoch.
func (m *Membership) Epoch() uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tbl.Epoch
}

// StateOf reports a node's membership state.
func (m *Membership) StateOf(node int) (MemberState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tbl.StateOf(node)
}

// Evacuated reports how many elements have been re-homed off dead or
// drained nodes by this process's recovery path.
func (m *Membership) Evacuated() int64 { return m.evacuated.Load() }

// allowDial is the TCP dial gate: never dial a node known to be Dead or
// Left. Unknown nodes stay dialable (bootstrap, joiners mid-admission).
func (m *Membership) allowDial(node int) bool {
	st, ok := m.StateOf(node)
	return !ok || (st != MemberDead && st != MemberLeft)
}

// pesOf lists the PEs owned by node under the static PE->node map.
func (m *Membership) pesOf(node int) []int {
	var pes []int
	for pe := 0; pe < m.cfg.NumPE; pe++ {
		if m.cfg.NodeOf(pe) == node {
			pes = append(pes, pe)
		}
	}
	return pes
}

// Instrument registers the manager's series on reg.
func (m *Membership) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("membership_version", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(m.tbl.Version)
	})
	reg.GaugeFunc("membership_epoch", func() int64 { return int64(m.Epoch()) })
	reg.CounterFunc("membership_joins_total", m.joins.Load)
	reg.CounterFunc("membership_drains_total", m.drains.Load)
	reg.CounterFunc("membership_deaths_total", m.deaths.Load)
	reg.CounterFunc("membership_evacuated_elements_total", m.evacuated.Load)
	reg.CounterFunc("membership_stale_tables_total", m.staleTables.Load)
	reg.CounterFunc("membership_broadcasts_total", m.broadcasts.Load)
}

// Control-frame plumbing -----------------------------------------------------

// HandleControl processes a ControlMembership frame (wire OnControl
// handlers route frames with Dst == vmi.ControlMembership here). It runs
// on the transport's read goroutine; table application is synchronous so
// that any frame the peer sent *after* the broadcast observes its
// effects.
func (m *Membership) HandleControl(f *vmi.Frame) {
	msg, err := DecodeMembershipMsg(f.Body)
	if err != nil {
		m.logf("membership: dropping bad control frame: %v", err)
		return
	}
	switch msg.Op {
	case memberOpTable:
		if msg.Tbl != nil {
			m.applyTable(msg.Tbl)
		}
	case memberOpJoin:
		if m.isCoordinator() {
			m.AdmitJoin(int(msg.From), msg.Addr)
		}
	case memberOpDrainReq:
		if m.isCoordinator() {
			m.MarkDraining(int(msg.From))
		}
	case memberOpDrainDone:
		if m.isCoordinator() {
			m.MarkLeft(int(msg.Node))
		}
	case memberOpDeadReport:
		if m.isCoordinator() {
			m.MarkDead(int(msg.Node), fmt.Errorf("reported by node %d", msg.From))
		}
	}
}

// sendControl ships a membership message to node, best effort: control
// frames that fail to send are repaired by anti-entropy or sender retry.
func (m *Membership) sendControl(node int, msg *MembershipMsg) {
	f := &vmi.Frame{Src: int32(m.cfg.Node), Dst: vmi.ControlMembership, Body: AppendMembershipMsg(nil, msg)}
	if err := m.cfg.Stack.SendControl(node, f); err != nil {
		m.logf("membership: control send to node %d: %v", node, err)
	}
}

// broadcastTo ships the current table to every reachable member except
// this process, plus the just-departed nodes in farewell. A node that
// drained to Left must still receive the table that says so — it is the
// release its RequestDrain blocks on — and it rides the still-open
// connection; every later broadcast skips Left nodes, so a departed
// process is never redialed. Dead nodes get nothing, ever: a zombie is
// fenced out precisely by staying ignorant of the new epoch.
func (m *Membership) broadcastTo(farewell []int) {
	t := m.Table()
	m.broadcasts.Add(1)
	sent := make(map[int]bool, len(farewell))
	for _, n := range farewell {
		if n != m.cfg.Node && !sent[n] {
			sent[n] = true
			m.sendControl(n, &MembershipMsg{Op: memberOpTable, From: int32(m.cfg.Node), Tbl: &t})
		}
	}
	for _, mb := range t.Members {
		if int(mb.Node) == m.cfg.Node || mb.State == MemberDead || mb.State == MemberLeft || sent[int(mb.Node)] {
			continue
		}
		m.sendControl(int(mb.Node), &MembershipMsg{Op: memberOpTable, From: int32(m.cfg.Node), Tbl: &t})
	}
}

// broadcast is the anti-entropy form: current members only, no farewells.
func (m *Membership) broadcast() { m.broadcastTo(nil) }

func (m *Membership) antiEntropyLoop() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-tick.C:
			m.broadcast()
		}
	}
}

// Coordinator mutations ------------------------------------------------------

// mutate applies fn to a copy of the table on the coordinator, bumps the
// version, applies the new table locally (running all recovery effects),
// and broadcasts it. fn returns false to abort (no-op mutation).
func (m *Membership) mutate(fn func(t *MemberTable) bool) bool {
	if !m.isCoordinator() {
		return false
	}
	m.applyMu.Lock()
	m.mu.Lock()
	next := m.tbl.clone()
	m.mu.Unlock()
	if !fn(&next) {
		m.applyMu.Unlock()
		return false
	}
	next.Version++
	m.applyLocked(&next, m.broadcastTo)
	m.applyMu.Unlock()
	return true
}

// AdmitJoin (coordinator) admits node as an Active member at addr.
// Idempotent: re-joining an Active member only refreshes its address.
func (m *Membership) AdmitJoin(node int, addr string) bool {
	changed := m.mutate(func(t *MemberTable) bool {
		if i := t.find(int32(node)); i >= 0 {
			mb := &t.Members[i]
			switch mb.State {
			case MemberActive:
				if mb.Addr == addr {
					return false
				}
			case MemberDead:
				// A dead node's identity is fenced; it must come back under
				// a fresh node number to rejoin.
				return false
			}
			mb.State = MemberActive
			mb.Addr = addr
			return true
		}
		t.Members = append(t.Members, Member{Node: int32(node), State: MemberActive, Addr: addr})
		sort.Slice(t.Members, func(i, j int) bool { return t.Members[i].Node < t.Members[j].Node })
		return true
	})
	if changed {
		m.joins.Add(1)
		m.logf("membership: node %d joined (%s)", node, addr)
	}
	return changed
}

// MarkDraining (coordinator) moves node to Draining: placement stops
// targeting it and its work is allowed to finish.
func (m *Membership) MarkDraining(node int) bool {
	changed := m.mutate(func(t *MemberTable) bool {
		i := t.find(int32(node))
		if i < 0 || t.Members[i].State != MemberActive {
			return false
		}
		t.Members[i].State = MemberDraining
		return true
	})
	if changed {
		m.drains.Add(1)
		m.logf("membership: node %d draining", node)
	}
	return changed
}

// MarkLeft (coordinator) completes a drain: the node's remaining elements
// (if any) are re-homed onto survivors and the node may exit. No epoch
// bump — a drained process stops sending before it exits, so there is
// nothing to fence.
func (m *Membership) MarkLeft(node int) bool {
	changed := m.mutate(func(t *MemberTable) bool {
		i := t.find(int32(node))
		if i < 0 || t.Members[i].State != MemberDraining {
			return false
		}
		t.Members[i].State = MemberLeft
		return true
	})
	if changed {
		m.logf("membership: node %d left", node)
	}
	return changed
}

// MarkDead (coordinator) declares node failed: the epoch is bumped (every
// surviving process fences the dead node's stale frames), its peer state
// is forgotten, and its elements are rebuilt fresh on survivors.
func (m *Membership) MarkDead(node int, cause error) bool {
	if node == m.cfg.Coordinator {
		// Coordinator self-death is not a table mutation anyone could
		// learn about; callers handle coordinator failure as run failure.
		return false
	}
	changed := m.mutate(func(t *MemberTable) bool {
		i := t.find(int32(node))
		if i < 0 || t.Members[i].State == MemberDead || t.Members[i].State == MemberLeft {
			return false
		}
		t.Members[i].State = MemberDead
		if t.Epoch < vmi.MaxEpoch {
			t.Epoch++
		}
		return true
	})
	if changed {
		m.deaths.Add(1)
		m.logf("membership: node %d declared dead (%v), epoch now %d", node, cause, m.Epoch())
	}
	return changed
}

// NotifyDrained reports that node's outstanding work is finished:
// callable from any process that can observe the fact (the taskfarm
// dispatcher). On the coordinator it completes the drain directly;
// elsewhere it is forwarded.
func (m *Membership) NotifyDrained(node int) {
	if m.isCoordinator() {
		m.MarkLeft(node)
		return
	}
	m.sendControl(m.cfg.Coordinator, &MembershipMsg{Op: memberOpDrainDone, From: int32(m.cfg.Node), Node: int32(node)})
}

// Worker requests ------------------------------------------------------------

// RequestJoin announces this process to the coordinator and waits until
// the table shows it Active. The request is re-sent on the anti-entropy
// period until admitted or the deadline passes.
func (m *Membership) RequestJoin(timeout time.Duration) error {
	if m.isCoordinator() {
		return fmt.Errorf("core: coordinator cannot join itself")
	}
	addr := m.cfg.Stack.Addr()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	tick := time.NewTicker(m.cfg.Interval)
	defer tick.Stop()
	for {
		m.sendControl(m.cfg.Coordinator, &MembershipMsg{Op: memberOpJoin, From: int32(m.cfg.Node), Addr: addr})
		select {
		case <-m.activeCh:
			return nil
		case <-m.stopCh:
			return fmt.Errorf("core: membership closed while joining")
		case <-deadline.C:
			return fmt.Errorf("core: join of node %d not admitted within %v", m.cfg.Node, timeout)
		case <-tick.C:
		}
	}
}

// RequestDrain asks the coordinator to drain this process and waits until
// the drain completes (LeftCh closes). The caller then stops its runtime
// and exits.
func (m *Membership) RequestDrain(timeout time.Duration) error {
	if m.isCoordinator() {
		return fmt.Errorf("core: coordinator drain is not supported")
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	tick := time.NewTicker(m.cfg.Interval)
	defer tick.Stop()
	for {
		m.sendControl(m.cfg.Coordinator, &MembershipMsg{Op: memberOpDrainReq, From: int32(m.cfg.Node)})
		select {
		case <-m.leftCh:
			return nil
		case <-m.stopCh:
			return fmt.Errorf("core: membership closed while draining")
		case <-deadline.C:
			return fmt.Errorf("core: drain of node %d not completed within %v", m.cfg.Node, timeout)
		case <-tick.C:
		}
	}
}

// PeerFailed is the Reliable layer's peer-failure handler: a peer's
// retransmit budget is exhausted. Returning true tells the layer to drop
// the peer's state and keep the stack alive. Already-fenced peers are
// dropped immediately; otherwise the failure is escalated to the
// coordinator (or handled locally if this is the coordinator) and the
// layer continues — the death broadcast arrives asynchronously.
func (m *Membership) PeerFailed(node int, err error) bool {
	if st, ok := m.StateOf(node); ok && (st == MemberDead || st == MemberLeft) {
		return true
	}
	if node == m.cfg.Coordinator {
		// Losing the coordinator is unsurvivable: no one can mutate the
		// table or fence us. Fail the stack (and with it the run).
		return false
	}
	if m.isCoordinator() {
		go m.MarkDead(node, err)
	} else {
		go m.sendControl(m.cfg.Coordinator, &MembershipMsg{Op: memberOpDeadReport, From: int32(m.cfg.Node), Node: int32(node)})
	}
	return true
}

// Table application ----------------------------------------------------------

// applyTable installs a received table if it is newer than the local one,
// running all local effects of the transition.
func (m *Membership) applyTable(t *MemberTable) {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	m.applyLocked(t, nil)
}

// applyLocked is the single place a new table takes effect. Caller holds
// applyMu. Effects run in a fixed order — epoch fence first, then address
// and peer-state plumbing, then element recovery, then the application
// callback — so that by the time the application learns of a death, stale
// frames are already being dropped and replacement elements are already
// queued for construction.
//
// preNotify (the coordinator's broadcast) runs after recovery but before
// OnChange: application traffic triggered by the change (e.g. a grant to
// a re-homed element) is only generated after the table's control frame
// is queued on each peer connection, so on any single connection the peer
// applies the table — arming its own recovery — before such traffic
// reaches it. It receives the nodes that just transitioned to Left so
// the broadcast can deliver them their own departure (the release their
// RequestDrain blocks on) exactly once.
func (m *Membership) applyLocked(t *MemberTable, preNotify func(freshLeft []int)) {
	m.mu.Lock()
	if t.Version <= m.tbl.Version {
		m.mu.Unlock()
		m.staleTables.Add(1)
		return
	}
	prev := m.tbl
	m.tbl = t.clone()
	m.mu.Unlock()

	// 1. Fence: any frame stamped with an older epoch is dropped by the
	// Reliable layer from this point on.
	m.cfg.Stack.SetEpoch(t.Epoch)

	// 2. Addresses (joiners) and peer teardown (dead / left nodes).
	var recoverNodes []int
	var freshLeft []int
	for _, mb := range t.Members {
		pi := prev.find(mb.Node)
		prevState := MemberState(255)
		if pi >= 0 {
			prevState = prev.Members[pi].State
		}
		if mb.Addr != "" && int(mb.Node) != m.cfg.Node {
			if pi < 0 || prev.Members[pi].Addr != mb.Addr {
				m.cfg.Stack.SetAddr(int(mb.Node), mb.Addr)
			}
		}
		if mb.State == prevState {
			continue
		}
		switch mb.State {
		case MemberDead:
			m.cfg.Stack.ForgetPeer(int(mb.Node))
			recoverNodes = append(recoverNodes, int(mb.Node))
		case MemberLeft:
			m.cfg.Stack.ForgetPeer(int(mb.Node))
			freshLeft = append(freshLeft, int(mb.Node))
		}
		if int(mb.Node) == m.cfg.Node {
			switch mb.State {
			case MemberActive:
				m.actOnce.Do(func() { close(m.activeCh) })
			case MemberLeft:
				m.leftOnce.Do(func() { close(m.leftCh) })
			}
		}
	}

	// 3. Element recovery. A dead or drained node's elements are rebuilt
	// by their constructors on survivors, so they carry no state over.
	// Every process applies the identical deterministic plan, so all
	// location tables stay in agreement.
	if m.rt != nil {
		for _, node := range recoverNodes {
			n := m.rt.recoverNode(m.pesOf(node), m.alivePE(t))
			m.evacuated.Add(int64(n))
			m.logf("membership: re-homed %d elements off dead node %d", n, node)
		}
		for _, node := range freshLeft {
			n := m.rt.recoverNode(m.pesOf(node), m.alivePE(t))
			m.evacuated.Add(int64(n))
			if n > 0 {
				m.logf("membership: re-homed %d straggler elements off drained node %d", n, node)
			}
		}
	}

	if preNotify != nil {
		preNotify(freshLeft)
	}

	// 4. Application notification (worker-set changes).
	if m.cfg.OnChange != nil {
		m.cfg.OnChange(t.clone())
	}
}

// alivePE returns a predicate for PEs on Active members of t.
func (m *Membership) alivePE(t *MemberTable) func(pe int) bool {
	active := make(map[int]bool)
	for _, mb := range t.Members {
		if mb.State == MemberActive {
			active[int(mb.Node)] = true
		}
	}
	return func(pe int) bool { return active[m.cfg.NodeOf(pe)] }
}
