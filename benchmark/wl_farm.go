package main

import (
	"fmt"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/taskfarm"
)

// farm_tasks: a run-to-completion sharded task farm across two TCP-joined
// nodes at zero latency. Batch=1 makes every task one grant and one result
// message, so the dispatchers, not the workers, bound the rate.

type farmRunner struct {
	tasks int
	spin  int
	seed  uint64
	want  uint64
}

func newFarmRunner(cfg runConfig) (runner, error) {
	f := &farmRunner{tasks: 100_000, spin: 2000, seed: uint64(cfg.seed)}
	if cfg.toy {
		f.tasks, f.spin = 500, 50
	}
	f.want = taskfarm.ExpectedChecksum(f.tasks)
	return f, nil
}

func (f *farmRunner) plannedOps() int64 { return int64(f.tasks) }

func (f *farmRunner) run(traced bool) (rep, error) {
	var r rep
	var o *observe
	if traced {
		o = newObserve(4, 10*f.tasks)
	}
	mk := func() (*core.Program, error) {
		return taskfarm.BuildProgram(&taskfarm.Params{
			Tasks: f.tasks, Workers: 4, Shards: 2, Batch: 1, Prefetch: 2,
			Steal: true, Spin: f.spin, Seed: f.seed, Metrics: o.registry(),
		})
	}
	setupFrom := time.Now()
	c, err := newCluster(2, 0, mk, o)
	if err != nil {
		return r, err
	}
	r.setup = time.Since(setupFrom)
	cpu0 := cpuTime()
	v, wall, err := c.run(&r)
	r.cpu = cpuTime() - cpu0
	if err != nil {
		return r, err
	}
	res, ok := v.(*taskfarm.Result)
	if !ok {
		return r, fmt.Errorf("taskfarm exited with %T", v)
	}
	if res.Checksum != f.want {
		return r, oracleErr("taskfarm checksum", res.Checksum, f.want)
	}
	r.attempted = int64(f.tasks)
	r.ops, r.wall = int64(f.tasks), wall
	r.opTimeUS = us(wall) / float64(f.tasks)
	if o != nil {
		coreLayers(&r, o, twoNodes(2, 0))
		farmLayers(&r, o, f.tasks)
	}
	return r, nil
}

// farmLayers reads the farm's own series from the registry.
func farmLayers(r *rep, o *observe, tasks int) {
	snap := o.reg.Snapshot()
	r.set("taskfarm.assign_wait_us_mean", histMeanUS(snap, "taskfarm_assign_wait_ns"))
	r.set("taskfarm.grants_per_task", float64(snap.Value("taskfarm_grants_total"))/float64(tasks))
	r.set("taskfarm.steals", float64(snap.Value("taskfarm_steals_total")))
}
