package core

import (
	"testing"
	"time"

	"gridmdo/internal/topology"
	"gridmdo/internal/vmi"
)

// xorDevice is a self-inverse body transform: the smallest device that
// makes a frame unreadable to a receiver without the matching chain.
type xorDevice struct{}

func (xorDevice) Name() string { return "xor" }

func (xorDevice) scramble(f *vmi.Frame) *vmi.Frame {
	g := f.Clone()
	for i := range g.Body {
		g.Body[i] ^= 0x5A
	}
	return g
}

func (d xorDevice) Send(f *vmi.Frame, next vmi.SendFunc) error { return next(d.scramble(f)) }
func (d xorDevice) Recv(f *vmi.Frame, next vmi.RecvFunc) error { return next(d.scramble(f)) }

// TestWireDeviceChain runs the two-node TCP ping-pong with a transform
// applied to every wide-area frame — the VMI "manipulate message data as
// it is passed from module to module" capability, end to end through the
// runtime.
func TestWireDeviceChain(t *testing.T) {
	const rounds = 3
	topo, err := topology.TwoClusters(2, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	mkProg := func() *Program {
		return &Program{
			Arrays: []ArraySpec{{
				ID: 0, N: 2,
				New: func(i int) Chare {
					return funcChare(func(ctx *Ctx, entry EntryID, data any) {
						n := data.(int)
						if n >= 2*rounds {
							ctx.ExitWith(n)
							return
						}
						ctx.Send(ElemRef{Array: 0, Index: 1 - ctx.Elem().Index}, 0, n+1,
							WithBytes(4096))
					})
				},
			}},
			Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 0}, 0, 0) },
		}
	}

	nodeOf := func(pe int) int { return pe }
	routeFn := func(pe int32) int { return int(pe) }
	var rts [2]*Runtime
	var tcps [2]*vmi.TCP
	addrs := []map[int]string{{0: "127.0.0.1:0"}, {1: "127.0.0.1:0"}}
	for node := 0; node < 2; node++ {
		node := node
		tcps[node] = vmi.NewTCP(node, addrs[node], routeFn, func(f *vmi.Frame) error {
			return rts[node].InjectFrame(f)
		})
	}
	a0, err := tcps[0].Listen()
	if err != nil {
		t.Fatal(err)
	}
	a1, err := tcps[1].Listen()
	if err != nil {
		t.Fatal(err)
	}
	tcps[0].SetAddr(1, a1)
	tcps[1].SetAddr(0, a0)
	defer tcps[0].Close()
	defer tcps[1].Close()

	for node := 0; node < 2; node++ {
		rt, err := NewRuntime(topo, mkProg(),
			WithCluster(ClusterConfig{Transport: tcps[node], NodeOf: nodeOf, Node: node, PELo: node, PEHi: node + 1}),
			WithWireDevices([]vmi.SendDevice{xorDevice{}}, []vmi.RecvDevice{xorDevice{}}))
		if err != nil {
			t.Fatal(err)
		}
		rts[node] = rt
	}
	done := make(chan error, 1)
	go func() {
		_, err := rts[1].Run()
		done <- err
	}()
	v, err := rts[0].Run()
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 2*rounds {
		t.Errorf("result %v through transform chain", v)
	}
	rts[1].Stop()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWireChainMismatchFails: a receiver without the matching recv chain
// must fail to decode transformed frames, surfacing an error rather than
// corrupting state.
func TestWireChainMismatchFails(t *testing.T) {
	topo, err := topology.TwoClusters(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	mkProg := func() *Program {
		return &Program{
			Arrays: []ArraySpec{{ID: 0, N: 2, New: func(i int) Chare {
				return funcChare(func(ctx *Ctx, entry EntryID, data any) { ctx.ExitWith(nil) })
			}}},
			Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 1}, 0, 99, WithBytes(4096)) },
		}
	}
	nodeOf := func(pe int) int { return pe }
	routeFn := func(pe int32) int { return int(pe) }
	var rts [2]*Runtime
	var tcps [2]*vmi.TCP
	addrs := []map[int]string{{0: "127.0.0.1:0"}, {1: "127.0.0.1:0"}}
	for node := 0; node < 2; node++ {
		node := node
		tcps[node] = vmi.NewTCP(node, addrs[node], routeFn, func(f *vmi.Frame) error {
			return rts[node].InjectFrame(f)
		})
	}
	a0, _ := tcps[0].Listen()
	a1, _ := tcps[1].Listen()
	tcps[0].SetAddr(1, a1)
	tcps[1].SetAddr(0, a0)
	defer tcps[0].Close()
	defer tcps[1].Close()

	// Node 0 scrambles; node 1 has no recv chain.
	rts[0], err = NewRuntime(topo, mkProg(),
		WithCluster(ClusterConfig{Transport: tcps[0], NodeOf: nodeOf, Node: 0, PELo: 0, PEHi: 1}),
		WithWireDevices([]vmi.SendDevice{xorDevice{}}, nil))
	if err != nil {
		t.Fatal(err)
	}
	rts[1], err = NewRuntime(topo, mkProg(),
		WithCluster(ClusterConfig{Transport: tcps[1], NodeOf: nodeOf, Node: 1, PELo: 1, PEHi: 2}))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := rts[1].Run()
		done <- err
	}()
	// Node 0 just sends and waits for exit; node 1 should fail decoding.
	go func() {
		time.Sleep(2 * time.Second)
		rts[0].Stop() // in case nothing else unblocks it
	}()
	_, _ = rts[0].Run()
	select {
	case err := <-done:
		if err == nil {
			t.Error("mismatched wire chain decoded successfully")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver neither failed nor stopped")
	}
}
