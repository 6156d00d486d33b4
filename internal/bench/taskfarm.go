package bench

import (
	"fmt"
	"io"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/sim"
	"gridmdo/internal/taskfarm"
)

// FarmConfig sizes the taskfarm-at-scale experiment (DESIGN.md §9): a
// worker-count sweep across the single dispatcher's WRONJ knee, run three
// ways over the one farm program — single master (one shard, one task per
// grant), sharded dispatchers, sharded + stealing.
type FarmConfig struct {
	// Tasks is the task count, shared by every point so checksums are
	// comparable across the whole sweep.
	Tasks int
	// AssignCost is AT, the modeled dispatcher time per assignment. The
	// single-master knee sits at Workers = farmTaskCost/AssignCost.
	AssignCost time.Duration
	// Batch is the sharded arms' grant batch cap (the single arm always
	// grants one task at a time).
	Batch int
	// Workers is the sweep; each point runs with one worker per PE.
	Workers []int
	// WorkersPerShard sets the shard count at each point:
	// shards = max(4, workers/WorkersPerShard).
	WorkersPerShard int
	// Latency is the inter-cluster one-way latency.
	Latency time.Duration
}

// The farm's task cost and pipeline depth, the same at every scale.
const (
	// farmTaskCost is JT, the modeled per-task compute (before skew).
	farmTaskCost = 10 * time.Millisecond
	// farmPrefetch is the per-worker pipeline depth.
	farmPrefetch = 2
	// farmCostSkew ramps per-task cost 1x..farmCostSkew-x across the task
	// space (identical for all three configurations — it changes where
	// the work is, not what the values are, so checksums still match).
	farmCostSkew = 4.0
)

// kneeWorkers is the analytic single-master saturation point JT/AT.
func (c FarmConfig) kneeWorkers() int {
	if c.AssignCost <= 0 {
		return 0
	}
	return int(farmTaskCost / c.AssignCost)
}

func (c FarmConfig) shardsFor(workers int) int {
	s := workers / c.WorkersPerShard
	if s < 4 {
		s = 4
	}
	if s > workers {
		s = workers
	}
	return s
}

// TaskfarmScale sweeps worker count across the WRONJ knee for the three
// dispatcher configurations and reports throughput, imbalance, and steal
// activity per point. Every point must reproduce the task set's expected
// checksum; a divergence comes back as an error alongside the table.
func TaskfarmScale(w io.Writer, p Profile) (*Table, error) {
	cfg := p.Farm
	t := &Table{
		Title: fmt.Sprintf("Taskfarm at scale: %d tasks, JT=%v AT=%v (single-master knee at %d workers), skew %.0fx",
			cfg.Tasks, farmTaskCost, cfg.AssignCost, cfg.kneeWorkers(), farmCostSkew),
		Header: []string{"Workers", "Config", "Shards", "Makespan (ms)", "Tasks/s",
			"Imb(workers)", "Imb(shards)", "Steals", "Stolen"},
	}
	want := taskfarm.ExpectedChecksum(cfg.Tasks)
	var diverged []string

	type variant struct {
		name   string
		shards func(workers int) int
		batch  int
		steal  bool
	}
	variants := []variant{
		{"single", func(int) int { return 1 }, 1, false},
		{"sharded", cfg.shardsFor, cfg.Batch, false},
		{"sharded+steal", cfg.shardsFor, cfg.Batch, true},
	}
	for _, workers := range cfg.Workers {
		for _, v := range variants {
			shards := v.shards(workers)
			res, err := simOn[taskfarm.Result](workers, cfg.Latency, func() (*core.Program, error) {
				return taskfarm.BuildProgram(&taskfarm.Params{
					Tasks: cfg.Tasks, Workers: workers, Prefetch: farmPrefetch,
					TaskCost: farmTaskCost, AssignCost: cfg.AssignCost,
					CostSkew: farmCostSkew, Seed: 1,
					Shards: shards, Batch: v.batch, Steal: v.steal,
				})
			}, sim.Options{})
			if err != nil {
				return nil, fmt.Errorf("taskfarm-scale %s W=%d: %w", v.name, workers, err)
			}
			if res.Checksum != want {
				diverged = append(diverged, fmt.Sprintf("%s W=%d", v.name, workers))
			}
			makespan := ms(res.Makespan)
			tasksPerSec := float64(cfg.Tasks) / res.Makespan.Seconds()
			shardImb := "-"
			if shards > 1 {
				shardImb = fmt.Sprintf("%.2f", taskfarm.Imbalance(res.PerShard))
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", workers), v.name, fmt.Sprintf("%d", shards),
				fmt.Sprintf("%.1f", makespan),
				fmt.Sprintf("%.0f", tasksPerSec),
				fmt.Sprintf("%.2f", taskfarm.Imbalance(res.PerWorker)),
				shardImb,
				fmt.Sprintf("%d", res.Steals),
				fmt.Sprintf("%d", res.StolenTask),
			})
			progress(w, "taskfarm-scale %-13s W=%-6d S=%-3d  %10.1f ms  %12.0f tasks/s  steals=%d\n",
				v.name, workers, shards, makespan, tasksPerSec, res.Steals)
		}
	}
	if len(diverged) > 0 {
		return t, fmt.Errorf("checksum diverged from %#x at %v", want, diverged)
	}
	return t, nil
}
