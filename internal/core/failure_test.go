package core

import (
	"testing"
	"time"

	"gridmdo/internal/topology"
	"gridmdo/internal/vmi"
)

// TestTransportFailureSurfaces: failures past the repair envelope surface.
// Each case injects one fault the reliability layer cannot repair into a
// two-node run — a peer dead before node 0 talks to it, every frame from
// a peer corrupted, a peer dying mid-run — and checks that the surviving
// node reports the exhausted retransmit budget as a run error instead of
// hanging or silently dropping work. Faults the layer does repair (drops,
// duplicates, a severed connection, garbage in the byte stream) are the
// chaos tests' side (chaos_test.go).
func TestTransportFailureSurfaces(t *testing.T) {
	// A short RTO spends the 12-retransmit budget in ~0.1 s of timeouts.
	fast := vmi.ReliableConfig{RTO: 2 * time.Millisecond, RTOMax: 10 * time.Millisecond}
	// Endless ping-pong: the run can only end with an error.
	pingPong := func(int) *Program {
		return &Program{
			Arrays: []ArraySpec{{
				ID: 0, N: 2,
				New: func(i int) Chare {
					return funcChare(func(ctx *Ctx, entry EntryID, data any) {
						n := data.(int)
						ctx.Send(ElemRef{Array: 0, Index: 1 - ctx.Elem().Index}, 0, n+1)
					})
				},
			}},
			Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 0}, 0, 0) },
		}
	}
	killNode1 := func(stacks [2]*vmi.Stack, rts [2]*Runtime) {
		stacks[1].Close()
		rts[1].Stop()
	}
	cases := []struct {
		name string
		rel  vmi.ReliableConfig
		// mod adds to node n's builder; prog defaults to pingPong.
		mod  func(node int, b *vmi.ChainBuilder)
		prog func(node int) *Program
		// fault, if non-nil, fires once node 1 has processed a message
		// from node 0 — unless preStart is set, in which case it fires
		// before node 0 starts, so node 0's first remote send meets the
		// fault head-on.
		fault    func(stacks [2]*vmi.Stack, rts [2]*Runtime)
		preStart bool
	}{
		{
			// Node 1's process dies before node 0 ever talks to it: every
			// retransmit meets a refused dial until the budget runs out.
			// (A chare quietly awaiting a reply from a dead peer is a hang
			// by design — the error must come from the send path.) Two
			// dial attempts keep each startup dial from sitting out ~9 s
			// of backoff for a peer that will never come up.
			name:     "peer transport death",
			rel:      fast,
			mod:      func(_ int, b *vmi.ChainBuilder) { b.DialAttempts(2) },
			fault:    killNode1,
			preStart: true,
		},
		{
			// Every frame node 1 sends has one body bit flipped (seeded,
			// deterministic): its data and its acks all fail the CRC on
			// node 0, so node 0's first frame is never acknowledged.
			name: "frame corruption fails decode",
			rel:  fast,
			mod: func(node int, b *vmi.ChainBuilder) {
				if node == 1 {
					b.Faults(vmi.NewFaultDevice(424242, vmi.FaultPlan{Corrupt: 1}))
				}
			},
		},
		{
			// Node 1 dies after traffic flowed, at default tuning and
			// default dial attempts: re-dials make one attempt each, so
			// the RTO schedule alone bounds detection (~4.7 s). Node 0
			// re-arms itself locally and sends to node 1 on every
			// handler; the 512-frame window bounds what it buffers.
			name: "peer dies mid-run",
			prog: func(int) *Program {
				return &Program{
					Arrays: []ArraySpec{{
						ID: 0, N: 2,
						New: func(i int) Chare {
							return funcChare(func(ctx *Ctx, entry EntryID, data any) {
								if i == 0 {
									ctx.Send(ElemRef{0, 0}, 0, 0)
									ctx.Send(ElemRef{0, 1}, 0, 0)
								}
							})
						},
					}},
					Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 0}, 0, 0) },
				}
			},
			fault: killNode1,
		},
	}
	topo, err := topology.TwoClusters(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := tc.prog
			if prog == nil {
				prog = pingPong
			}
			p := newTCPPair(t, topo, prog, tc.rel, tc.mod, nil)
			stacks := [2]*vmi.Stack{p.Nodes[0].Stack, p.Nodes[1].Stack}
			rts := [2]*Runtime{p.Nodes[0].Runtime, p.Nodes[1].Runtime}

			node1Done := make(chan struct{})
			go func() {
				_, _ = rts[1].Run()
				close(node1Done)
			}()

			res := make(chan error, 1)
			startNode0 := func() {
				go func() {
					_, err := rts[0].Run()
					res <- err
				}()
			}
			if tc.preStart {
				tc.fault(stacks, rts)
				startNode0()
			} else {
				startNode0()
				if tc.fault != nil {
					awaitRemoteTraffic(t, rts[1], res)
					tc.fault(stacks, rts)
				}
			}

			select {
			case err := <-res:
				if err == nil {
					t.Error("surviving node returned success after transport fault")
				} else {
					t.Logf("surfaced: %v", err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("surviving node hung after transport fault")
			}
			rts[1].Stop()
			select {
			case <-node1Done:
			case <-time.After(10 * time.Second):
				t.Fatal("node 1 never stopped")
			}
		})
	}
}

// awaitRemoteTraffic returns once node 1 has processed a message: it
// hosts nothing that runs on its own, so that message crossed the wire
// from node 0. A run of node 0 that ends first is put back on res for the
// caller to judge.
func awaitRemoteTraffic(t *testing.T, rt *Runtime, res chan error) {
	t.Helper()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	timeout := time.After(10 * time.Second)
	for {
		if _, processed := rt.Counters(); processed >= 1 {
			return
		}
		select {
		case err := <-res:
			res <- err
			return
		case <-tick.C:
		case <-timeout:
			t.Fatal("no traffic from node 0 reached node 1")
		}
	}
}
