package main

import (
	"fmt"
	"math/rand"
	"syscall"
	"time"
)

// runConfig is what a workload is built from. The programs under test see
// only inputs generated from seed.
type runConfig struct {
	seed int64
	toy  bool // test sizes: hundreds of operations instead of millions
}

func (c runConfig) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(c.seed*1_000_003 + stream))
}

// rep is what one repetition of a workload reports. The throughput phase
// is the part of the repetition that runs at the workload's full
// concurrency; ops, wall and cpu describe that phase only.
type rep struct {
	setup    time.Duration // building programs, stacks, servers: up to Run / first request
	ops      int64         // operations completed in the throughput phase
	wall     time.Duration // wall time of the throughput phase
	cpu      time.Duration // process CPU time (user+system) of the throughput phase
	opTimeUS float64       // median time of one operation issued alone, or wall ÷ ops where operations only overlap

	attempted, failed int64 // operations tried, and of those the ones that failed or were wrong

	layer map[string]float64 // per-layer values this repetition measured
	spans []*msgSpan         // message spans of a traced repetition
}

func (r *rep) opsPerS() float64    { return float64(r.ops) / r.wall.Seconds() }
func (r *rep) cpuUSPerOp() float64 { return float64(r.cpu.Microseconds()) / float64(r.ops) }

func (r *rep) set(name string, v float64) {
	if r.layer == nil {
		r.layer = map[string]float64{}
	}
	r.layer[name] = v
}

// runner performs repetitions of one workload. Everything that is not part
// of a repetition — reference results, generated inputs — is computed when
// the runner is built.
type runner interface {
	// run performs one repetition, with the public observation hooks
	// attached when traced is set. An error means the repetition as a whole
	// failed: it errored, or its result did not match the oracle.
	run(traced bool) (rep, error)
	// plannedOps is how many operations one repetition attempts, charged
	// as failed when a repetition errors before it can count them.
	plannedOps() int64
}

// processStart anchors intervals taken from time.Now on the monotonic clock.
var processStart = time.Now()

func sinceStart(t time.Time) time.Duration { return t.Sub(processStart) }

// cpuTime is the CPU time this process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func oracleErr(what string, got, want any) error {
	return fmt.Errorf("oracle: %s = %v, want %v", what, got, want)
}
