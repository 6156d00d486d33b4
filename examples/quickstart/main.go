// Quickstart: the smallest useful GridMDO program.
//
// It builds a two-cluster machine with a 25ms wide-area link, then runs
// two experiments on the real-time runtime:
//
//  1. A chare on cluster 0 asks a chare on cluster 1 a question and the
//     PE sits idle until the answer returns (one object per PE — no
//     latency tolerance possible).
//  2. The same exchange, but the asking PE also hosts a pipeline of
//     worker chares with local messages to chew through. The scheduler
//     interleaves them into the WAN wait, and the elapsed time barely
//     grows — the paper's point, in ~100 lines.
//
// Run:  go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/topology"
)

const (
	arrAsker     core.ArrayID = 0
	arrResponder core.ArrayID = 1
	arrWorker    core.ArrayID = 2
)

// asker lives on PE 0 and performs WAN round trips.
type asker struct {
	rounds    int
	remaining int
}

func (a *asker) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	switch entry {
	case 0: // kick
		a.remaining = a.rounds
		ctx.Send(core.ElemRef{Array: arrResponder, Index: 0}, 0, "ping")
	case 1: // reply from across the WAN
		a.remaining--
		if a.remaining == 0 {
			ctx.ExitWith(ctx.Time())
			return
		}
		ctx.Send(core.ElemRef{Array: arrResponder, Index: 0}, 0, "ping")
	}
}

// responder lives on PE 1 (the remote cluster).
type responder struct{}

func (responder) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	ctx.Send(core.ElemRef{Array: arrAsker, Index: 0}, 1, "pong")
}

// worker chares ping-pong a token among themselves on PE 0, doing real
// (if small) computation on each hop. Without an asker to end the run,
// the last hop does.
type worker struct {
	n      int
	exit   bool
	bucket float64
}

func (w *worker) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	hops := data.(int)
	// Some genuine local work.
	for i := 0; i < 200_000; i++ {
		w.bucket += float64(i%7) * 1e-9
	}
	if hops <= 0 {
		if w.exit {
			ctx.Exit()
		}
		return
	}
	ctx.Send(core.ElemRef{Array: arrWorker, Index: (ctx.Elem().Index + 1) % w.n}, 0, hops-1)
}

func run(withAsker, withWorkers bool) time.Duration {
	const wan = 25 * time.Millisecond
	topo, err := topology.TwoClusters(2, wan)
	if err != nil {
		log.Fatal(err)
	}
	const nWorkers = 4
	prog := &core.Program{
		Arrays: []core.ArraySpec{
			{ID: arrAsker, N: 1, Map: func(int, int) int { return 0 },
				New: func(int) core.Chare { return &asker{rounds: 4} }},
			{ID: arrResponder, N: 1, Map: func(int, int) int { return 1 },
				New: func(int) core.Chare { return responder{} }},
			{ID: arrWorker, N: nWorkers, Map: func(int, int) int { return 0 },
				New: func(int) core.Chare { return &worker{n: nWorkers, exit: !withAsker} }},
		},
		Start: func(ctx *core.Ctx) {
			if withAsker {
				ctx.Send(core.ElemRef{Array: arrAsker, Index: 0}, 0, nil)
			}
			if withWorkers {
				// 400 hops of local work share PE 0 with the asker.
				ctx.Send(core.ElemRef{Array: arrWorker, Index: 0}, 0, 400)
			}
		},
	}
	rt, err := core.NewRuntime(topo, prog)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if _, err := rt.Run(); err != nil {
		log.Fatal(err)
	}
	return time.Since(start)
}

func main() {
	fmt.Println("GridMDO quickstart: masking a 25ms WAN with message-driven objects")
	fmt.Println()

	idle := run(true, false)
	fmt.Printf("A: 4 WAN round trips, PE otherwise idle:  %v\n", idle.Round(time.Millisecond))

	work := run(false, true)
	fmt.Printf("B: 400 local work messages, no WAN:       %v\n", work.Round(time.Millisecond))

	busy := run(true, true)
	fmt.Printf("C: both together on the same PE:          %v\n", busy.Round(time.Millisecond))

	saved := idle + work - busy
	fmt.Println()
	fmt.Printf("C is %v less than A+B: while WAN replies were in flight, the\n", saved.Round(time.Millisecond))
	fmt.Println("scheduler kept the PE busy executing local worker chares. That")
	fmt.Println("overlap — obtained with no application-level changes — is the")
	fmt.Println("technique the paper evaluates. (On a multi-core machine the")
	fmt.Println("overlap is even closer to perfect; see internal/sim for the")
	fmt.Println("noise-free virtual-time version of this experiment.)")
}
