package core

import (
	"testing"
	"time"

	"gridmdo/internal/topology"
	"gridmdo/internal/vmi"
)

// TestTransportFailureSurfaces injects one transport-layer fault per case
// into a two-node ping-pong over the stack gridnode builds without a
// reliability layer — a dead peer (writer errors), wire garbage that
// breaks the VMI framing (reader errors), and per-frame payload corruption
// that breaks message decoding — and checks the surviving node reports an
// error instead of hanging or silently dropping work. This is the
// fail-fast contract; the reliability layer's chaos tests (chaos_test.go)
// cover the opposite regime, where the same faults are absorbed and
// repaired.
func TestTransportFailureSurfaces(t *testing.T) {
	cases := []struct {
		name string
		// faults returns send-side fault devices for a node's stack.
		faults func(node int) []vmi.SendDevice
		// fault, if non-nil, is fired once node 0 has processed a message
		// from node 1 — unless preStart is set, in which case it fires
		// before node 0 starts, so node 0's first remote send meets the
		// fault head-on.
		fault    func(t *testing.T, stacks [2]*vmi.Stack, rts [2]*Runtime)
		preStart bool
	}{
		{
			// Node 1's process dies before node 0 ever talks to it: the
			// first remote send exhausts its dial attempts and fails the
			// run. (A chare quietly awaiting a reply from a dead peer is
			// a hang by design — the error must come from the send path.)
			name:     "peer transport death",
			preStart: true,
			fault: func(t *testing.T, stacks [2]*vmi.Stack, rts [2]*Runtime) {
				stacks[1].Close()
				rts[1].Stop()
			},
		},
		{
			// Garbage bytes in the TCP stream: node 0's frame reader hits
			// a bad magic and the connection is unrecoverable.
			name: "wire corruption breaks framing",
			fault: func(t *testing.T, stacks [2]*vmi.Stack, rts [2]*Runtime) {
				if err := stacks[1].TCP().CorruptWire(0); err != nil {
					t.Errorf("CorruptWire: %v", err)
				}
			},
		},
		{
			// Every frame node 1 sends has one body bit flipped (seeded,
			// deterministic): the message header or payload fails to
			// decode on node 0 within a few frames, surfacing through the
			// deliver error path. No explicit fault action needed.
			name: "frame corruption fails decode",
			faults: func(node int) []vmi.SendDevice {
				if node != 1 {
					return nil
				}
				return []vmi.SendDevice{vmi.NewFaultDevice(424242, vmi.FaultPlan{Corrupt: 1})}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := topology.TwoClusters(2, 5*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			// Endless ping-pong: the run can only end with an error.
			mkProg := func(int) *Program {
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
			p := newTCPPair(t, topo, mkProg, func(node int, b *vmi.ChainBuilder) {
				b.DialAttempts(2) // fail fast after the peer dies
				if tc.faults != nil {
					b.Faults(tc.faults(node), nil)
				}
			}, nil)
			stacks, rts := p.stacks, p.rts

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
				tc.fault(t, stacks, rts)
				startNode0()
			} else {
				startNode0()
				if tc.fault != nil {
					awaitRemoteTraffic(t, rts[0], res)
					tc.fault(t, stacks, rts)
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

// awaitRemoteTraffic returns once node 0 of a ping-pong has processed a
// message from node 1: its start message and element 0's first handler
// are local, so a third processed message crossed the wire. A run that
// ends first is put back on res for the caller to judge.
func awaitRemoteTraffic(t *testing.T, rt *Runtime, res chan error) {
	t.Helper()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	timeout := time.After(10 * time.Second)
	for {
		if _, processed := rt.Counters(); processed >= 3 {
			return
		}
		select {
		case err := <-res:
			res <- err
			return
		case <-tick.C:
		case <-timeout:
			t.Fatal("no traffic from node 1 reached node 0")
		}
	}
}
