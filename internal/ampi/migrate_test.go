package ampi

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/sim"
	"gridmdo/internal/stencil"
	"gridmdo/internal/topology"
)

// moveAll is a test strategy that migrates every element to the next PE,
// so a single round is guaranteed to move every rank.
type moveAll struct{}

func (moveAll) Name() string { return "move-all" }
func (moveAll) Plan(s *core.LBStats) []core.Move {
	var out []core.Move
	for _, e := range s.Elems {
		out = append(out, core.Move{Ref: e.Ref, ToPE: (e.PE + 1) % s.NumPE})
	}
	return out
}

// jacobiState is the migratable rank state for the 1-D Jacobi tests: the
// step counter and this rank's interior cells (ghosts are re-exchanged
// every step and need not move).
type jacobiState struct {
	Step int
	Cur  []float64
}

func (s *jacobiState) PUP(p *core.PUP) {
	p.Int(&s.Step)
	p.Float64s(&s.Cur)
}

// jacobiMain builds a migratable 1-D Jacobi over n cells that enters the
// load-balancing barrier after syncStep steps. Each completed step is
// recorded in the state before AtSync, so a migrated rank re-enters Run
// at exactly the next step.
func jacobiMain(n, steps, syncStep int) MigratableMain {
	return MigratableMain{
		NewState: func(rank, size int) core.PUPable {
			per := n / size
			st := &jacobiState{Cur: make([]float64, per)}
			for i := range st.Cur {
				st.Cur[i] = stencil.Init(rank*per+i, 0)
			}
			return st
		},
		Run: func(c *Comm, stAny core.PUPable) {
			st := stAny.(*jacobiState)
			r, per := c.Rank(), n/c.Size()
			for st.Step < steps {
				s := st.Step
				cur := make([]float64, per+2)
				copy(cur[1:], st.Cur)
				if r > 0 {
					v, _ := c.Sendrecv(r-1, s, cur[1], r-1, s)
					cur[0] = v.(float64)
				}
				if r < c.Size()-1 {
					v, _ := c.Sendrecv(r+1, s, cur[per], r+1, s)
					cur[per+1] = v.(float64)
				}
				next := make([]float64, per)
				for i := 1; i <= per; i++ {
					g := r*per + i - 1
					if g == 0 || g == n-1 {
						next[i-1] = cur[i]
						continue
					}
					next[i-1] = 0.5 * (cur[i-1] + cur[i+1])
				}
				st.Cur = next
				st.Step++
				if st.Step == syncStep {
					c.AtSync()
				}
			}
		},
	}
}

// serialJacobi computes the reference relaxation.
func serialJacobi(n, steps int) []float64 {
	ref := make([]float64, n)
	tmp := make([]float64, n)
	for i := range ref {
		ref[i] = stencil.Init(i, 0)
	}
	for s := 0; s < steps; s++ {
		for i := 0; i < n; i++ {
			if i == 0 || i == n-1 {
				tmp[i] = ref[i]
				continue
			}
			tmp[i] = 0.5 * (ref[i-1] + ref[i+1])
		}
		ref, tmp = tmp, ref
	}
	return ref
}

// TestAMPIMigrationPreservesJacobi migrates every rank mid-run and checks
// the relaxation still matches the serial reference bit for bit — the
// rank state, including the field, moved intact, and the re-entered Run
// resumed at exactly the right step.
func TestAMPIMigrationPreservesJacobi(t *testing.T) {
	const n, ranks, steps, syncStep = 64, 4, 8, 4

	var mu sync.Mutex
	prePE := map[int]int{}
	postPE := map[int]int{}
	results := map[int][]float64{}

	main := jacobiMain(n, steps, syncStep)
	inner := main.Run
	main.Run = func(c *Comm, st core.PUPable) {
		if st.(*jacobiState).Step < syncStep {
			mu.Lock()
			prePE[c.Rank()] = c.PE()
			mu.Unlock()
		}
		inner(c, st)
		mu.Lock()
		postPE[c.Rank()] = c.PE()
		results[c.Rank()] = append([]float64(nil), st.(*jacobiState).Cur...)
		mu.Unlock()
	}

	prog, err := BuildMigratableProgram(ranks, main, WithLB(moveAll{}))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.TwoClusters(2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	ref := serialJacobi(n, steps)
	per := n / ranks
	for r := 0; r < ranks; r++ {
		if len(results[r]) != per {
			t.Fatalf("rank %d produced %d cells", r, len(results[r]))
		}
		for i, v := range results[r] {
			if want := ref[r*per+i]; math.Abs(v-want) > 0 {
				t.Fatalf("rank %d cell %d = %v, want %v", r, i, v, want)
			}
		}
	}
	for r := 0; r < ranks; r++ {
		if prePE[r] == postPE[r] {
			t.Errorf("rank %d stayed on PE %d; move-all strategy should have migrated it", r, prePE[r])
		}
	}
}

// TestAMPIMigrationCarriesUnexpectedQueue parks a message in a rank's
// unexpected queue before the sync, migrates the rank, and receives the
// message on the destination PE: the queue crossed the wire with the
// state.
func TestAMPIMigrationCarriesUnexpectedQueue(t *testing.T) {
	var got any
	var gotPE int
	main := MigratableMain{
		NewState: func(rank, size int) core.PUPable {
			return &phaseState{}
		},
		Run: func(c *Comm, stAny core.PUPable) {
			st := stAny.(*phaseState)
			if st.Phase == 0 {
				if c.Rank() == 1 {
					c.Send(0, 99, "carried across")
					c.Send(0, 5, 1)
				} else {
					// Hold until the tag-99 message is queued (Probe does
					// not consume it), then drain tag 5 so nothing is in
					// flight toward this rank at the sync point.
					c.Probe(1, 99)
					c.Recv(1, 5)
				}
				st.Phase = 1
				c.AtSync()
			}
			if c.Rank() == 0 {
				v, stat := c.Recv(1, 99)
				got, gotPE = v, c.PE()
				if stat.Source != 1 || stat.Tag != 99 {
					t.Errorf("status = %+v", stat)
				}
			}
		},
	}

	prog, err := BuildMigratableProgram(2, main, WithLB(moveAll{}))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.TwoClusters(2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "carried across" {
		t.Errorf("post-migration receive = %v", got)
	}
	if gotPE < 0 || gotPE > 1 {
		t.Errorf("received on PE %d", gotPE)
	}
}

// phaseState is a minimal migratable state for protocol-shaped tests.
type phaseState struct{ Phase int }

func (s *phaseState) PUP(p *core.PUP) { p.Int(&s.Phase) }

// TestAMPIMigrationOnSimDeterministic runs a migrating program on the
// virtual-time engine twice and demands identical final times.
func TestAMPIMigrationOnSimDeterministic(t *testing.T) {
	run := func() time.Duration {
		prog, err := BuildMigratableProgram(8, jacobiMain(64, 6, 3), WithLB(moveAll{}))
		if err != nil {
			t.Fatal(err)
		}
		topo, err := topology.TwoClusters(4, 3*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.New(topo, prog, sim.Options{MaxEvents: 20_000_000})
		if err != nil {
			t.Fatal(err)
		}
		_, final, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return final
	}
	if t1, t2 := run(), run(); t1 != t2 {
		t.Errorf("migrating AMPI program not deterministic on sim: %v vs %v", t1, t2)
	}
}

// TestRankPUPRoundTrip packs a migratable rank directly — state plus a
// mixed unexpected queue — and restores it into a freshly constructed
// rank, as the arrive leg does.
func TestRankPUPRoundTrip(t *testing.T) {
	main := jacobiMain(16, 4, 2)
	met := newAMPIMetrics(nil)

	src := &rankChare{mig: &main, st: main.NewState(1, 4), comm: newComm(1, 4, met)}
	src.comm.migratable = true
	src.st.(*jacobiState).Step = 2
	src.comm.inbox = []*pkt{
		{Src: 3, Tag: 9, Data: 3.5, Bytes: 77},
		{Src: 0, Tag: 2, Data: nil},
		{Src: 2, Tag: -4, Data: "bcast"},
	}

	blob, err := core.PUPPack(src)
	if err != nil {
		t.Fatal(err)
	}

	dst := &rankChare{mig: &main, st: main.NewState(1, 4), comm: newComm(1, 4, met)}
	dst.comm.migratable = true
	if err := core.PUPUnpack(dst, blob); err != nil {
		t.Fatal(err)
	}
	if got := dst.st.(*jacobiState); got.Step != 2 || len(got.Cur) != 4 {
		t.Errorf("restored state = %+v", got)
	}
	if len(dst.comm.inbox) != 3 {
		t.Fatalf("restored inbox has %d packets", len(dst.comm.inbox))
	}
	q := dst.comm.inbox[0]
	if q.Src != 3 || q.Tag != 9 || q.Bytes != 77 || q.Data != 3.5 {
		t.Errorf("packet 0 = %+v", q)
	}
	if dst.comm.inbox[1].Data != nil {
		t.Errorf("nil payload did not survive: %+v", dst.comm.inbox[1])
	}
	if dst.comm.inbox[2].Data != "bcast" {
		t.Errorf("packet 2 = %+v", dst.comm.inbox[2])
	}

	// Repack must be byte-identical.
	blob2, err := core.PUPPack(dst)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Error("repack differs from original pack")
	}

	// Junk must be rejected, not crash.
	junk := append([]byte(nil), blob...)
	if err := core.PUPUnpack(&rankChare{mig: &main, st: main.NewState(1, 4), comm: newComm(1, 4, met)}, junk[:len(junk)-3]); err == nil {
		t.Error("truncated rank blob accepted")
	}
}

// TestRankPUPRefusals covers the two states a rank cannot be packed in.
func TestRankPUPRefusals(t *testing.T) {
	met := newAMPIMetrics(nil)

	// A plain (BuildProgram) rank is not migratable.
	plain := &rankChare{main: func(*Comm) {}, comm: newComm(0, 2, met)}
	if _, err := core.PUPPack(plain); err == nil || !strings.Contains(err.Error(), "BuildMigratableProgram") {
		t.Errorf("plain rank pack error = %v", err)
	}

	// A rank blocked in a receive has live stack state the pack cannot
	// capture.
	main := jacobiMain(16, 4, 2)
	blocked := &rankChare{mig: &main, st: main.NewState(0, 4), comm: newComm(0, 4, met)}
	blocked.comm.waiting = &recvReq{src: 1, tag: 5}
	if _, err := core.PUPPack(blocked); err == nil || !strings.Contains(err.Error(), "blocked in a receive") {
		t.Errorf("blocked rank pack error = %v", err)
	}
}

// TestBuildMigratableProgramValidation checks constructor errors.
func TestBuildMigratableProgramValidation(t *testing.T) {
	ok := jacobiMain(16, 4, 2)
	if _, err := BuildMigratableProgram(0, ok); err == nil {
		t.Error("0 ranks accepted")
	}
	if _, err := BuildMigratableProgram(4, MigratableMain{Run: ok.Run}); err == nil {
		t.Error("missing NewState accepted")
	}
	if _, err := BuildMigratableProgram(4, MigratableMain{NewState: ok.NewState}); err == nil {
		t.Error("missing Run accepted")
	}
}

// TestAtSyncOnPlainRankPanics pins the guard that keeps BuildProgram
// ranks out of the barrier they cannot be packed for.
func TestAtSyncOnPlainRankPanics(t *testing.T) {
	c := newComm(0, 1, newAMPIMetrics(nil))
	defer func() {
		if recover() == nil {
			t.Error("AtSync on a plain rank did not panic")
		}
	}()
	c.AtSync()
}

// TestPktWire: a rank-to-rank packet crosses the wire with any registered
// or built-in payload nested inside it, and a payload type nobody
// registered fails the encode by name instead of being guessed at.
func TestPktWire(t *testing.T) {
	for _, in := range []pkt{
		{Src: 3, Tag: 7, Data: []float64{1, 2.5}, Bytes: 16},
		{Src: 0, Tag: tagBarrierUp},
		{Src: 1, Tag: -4, Data: "hello"},
		{Src: 2, Tag: 0, Data: pkt{Src: 9, Data: int64(4)}},
	} {
		enc, err := core.EncodeMessage(&core.Message{Kind: core.KindApp, Data: in})
		if err != nil {
			t.Fatal(err)
		}
		out, err := core.DecodeMessage(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Data, in) {
			t.Errorf("%#v came back as %#v", in, out.Data)
		}
	}
	type local struct{ X int }
	_, err := core.EncodeMessage(&core.Message{Kind: core.KindApp, Data: pkt{Data: local{1}}})
	if err == nil || !strings.Contains(err.Error(), "ampi.local") {
		t.Errorf("unregistered packet data: err = %v, want one naming ampi.local", err)
	}
}
