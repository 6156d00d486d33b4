// Taskfarm: the paper's "master-slave" application class.
//
// Part 1: one dispatcher on cluster 0 farms independent 50ms tasks to workers
// spread across both clusters of an 8-PE machine. With enough tasks
// prefetched per worker, even a 64ms wide-area link barely moves the
// makespan — quantifying the paper's §1 observation that master-slave
// applications "typically have small communication requirements and ...
// communication delays are often not on the critical path."
//
// Part 2: latency masking is not the only ceiling. A single dispatcher
// that spends AT per assignment saturates at JT/AT workers (the WRONJ
// knee) no matter how deep the prefetch; past it, added workers buy
// nothing. The dispatcher is a chare array of one; growing the array —
// each shard owning a slice of the task space, granting in batches,
// stealing from random victims when its slice drains — restores
// near-linear scaling over the identical task set (the order-independent
// checksum proves every task ran exactly once either way). Both parts run
// the same program; only Shards, Batch and Steal differ. See DESIGN.md §9.
//
// Run:  go run ./examples/taskfarm
package main

import (
	"fmt"
	"log"
	"time"

	"gridmdo/internal/sim"
	"gridmdo/internal/taskfarm"
	"gridmdo/internal/topology"
)

func makespan(lat time.Duration, prefetch int) time.Duration {
	prog, err := taskfarm.BuildProgramFor(&taskfarm.Params{
		Tasks: 200, Prefetch: prefetch, TaskCost: 50 * time.Millisecond, TaskBytes: 2048,
		Workers: 7, DedicatedMaster: true, // PE 0 serves the dispatcher only
		Shards: 1, Batch: 1, // the single master: one task per grant
	}, 8)
	if err != nil {
		log.Fatal(err)
	}
	topo, err := topology.TwoClusters(8, lat)
	if err != nil {
		log.Fatal(err)
	}
	e, err := sim.New(topo, prog, sim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	v, _, err := e.Run()
	if err != nil {
		log.Fatal(err)
	}
	return v.(*taskfarm.Result).Makespan
}

// farmAtScale runs tasks×10ms work on W workers (one per PE, split across
// two clusters) under `shards` dispatcher shards granting up to `batch`
// tasks per message, with or without randomized stealing.
func farmAtScale(workers, shards, batch int, steal bool) *taskfarm.Result {
	prog, err := taskfarm.BuildProgram(&taskfarm.Params{
		Tasks: 20000, Prefetch: 2, Workers: workers,
		TaskCost: 10 * time.Millisecond, AssignCost: 200 * time.Microsecond,
		CostSkew: 4, Seed: 1,
		Shards: shards, Batch: batch, Steal: steal,
	})
	if err != nil {
		log.Fatal(err)
	}
	topo, err := topology.TwoClusters(workers, 4*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	e, err := sim.New(topo, prog, sim.Options{MaxEvents: 50_000_000})
	if err != nil {
		log.Fatal(err)
	}
	v, _, err := e.Run()
	if err != nil {
		log.Fatal(err)
	}
	return v.(*taskfarm.Result)
}

func main() {
	fmt.Println("Task farm: 200 × 50ms tasks, 8 workers across two clusters")
	fmt.Println()
	fmt.Printf("%10s %16s %16s\n", "latency", "prefetch=1", "prefetch=4")
	for _, lat := range []time.Duration{0, 4e6, 16e6, 64e6, 256e6} {
		fmt.Printf("%10s %16s %16s\n", lat,
			makespan(lat, 1).Round(time.Millisecond),
			makespan(lat, 4).Round(time.Millisecond))
	}
	fmt.Println()
	fmt.Println("With one task in flight, remote workers idle a round trip between")
	fmt.Println("tasks; with four prefetched, dispatch rides inside compute and the")
	fmt.Println("farm shrugs off the wide area — no runtime tricks required, which")
	fmt.Println("is why the paper's problem statement focuses on the tightly-coupled")
	fmt.Println("classes instead.")

	fmt.Println()
	fmt.Println("Past the knee: 20000 × 10ms tasks, 200µs per assignment (knee at 50")
	fmt.Println("workers), 4x cost skew across the task space")
	fmt.Println()
	fmt.Printf("%8s %8s %14s %12s %8s %8s\n",
		"workers", "config", "makespan", "tasks/s", "steals", "stolen")
	var check uint64
	for _, w := range []int{26, 50, 100, 200} {
		single := farmAtScale(w, 1, 1, false)
		sharded := farmAtScale(w, 4, 16, true)
		check = single.Checksum
		if sharded.Checksum != single.Checksum {
			log.Fatalf("checksum diverged: %#x vs %#x", sharded.Checksum, single.Checksum)
		}
		for _, r := range []struct {
			name string
			res  *taskfarm.Result
		}{{"single", single}, {"4-shard", sharded}} {
			fmt.Printf("%8d %8s %14s %12.0f %8d %8d\n",
				w, r.name, r.res.Makespan.Round(time.Millisecond),
				20000/r.res.Makespan.Seconds(), r.res.Steals, r.res.StolenTask)
		}
	}
	fmt.Println()
	fmt.Printf("Below the knee both are compute-bound (stealing already smooths the\n"+
		"skew a little); past it the single master's assignment loop is the\n"+
		"bottleneck and its curve flattens, while the sharded farm keeps\n"+
		"scaling — 1.6x the throughput at 200 workers. Checksum %#x\n"+
		"is bit-identical in all eight runs: stealing moved tasks, never\n"+
		"duplicated or dropped one.\n", check)
}
