package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

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
	// TaskCost is JT, the modeled per-task compute (before skew).
	TaskCost time.Duration
	// AssignCost is AT, the modeled dispatcher time per assignment. The
	// single-master knee sits at Workers = TaskCost/AssignCost.
	AssignCost time.Duration
	// Prefetch and Batch are the pipeline depth and the sharded arms'
	// grant batch cap (the single arm always grants one task at a time).
	Prefetch, Batch int
	// CostSkew ramps per-task cost 1x..CostSkew-x across the task space
	// (identical for all three configurations — it changes where the work
	// is, not what the values are, so checksums still match).
	CostSkew float64
	// Workers is the sweep; each point runs with one worker per PE.
	Workers []int
	// WorkersPerShard sets the shard count at each point:
	// shards = max(4, workers/WorkersPerShard).
	WorkersPerShard int
	// Latency is the inter-cluster one-way latency.
	Latency time.Duration
}

// kneeWorkers is the analytic single-master saturation point JT/AT.
func (c FarmConfig) kneeWorkers() int {
	if c.AssignCost <= 0 {
		return 0
	}
	return int(c.TaskCost / c.AssignCost)
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

// FarmPoint is one measured sweep point, serialized into
// BENCH_taskfarm.json.
type FarmPoint struct {
	Workers         int     `json:"workers"`
	Shards          int     `json:"shards"`
	MakespanMS      float64 `json:"makespan_ms"`
	TasksPerSec     float64 `json:"tasks_per_sec"`
	Checksum        string  `json:"checksum"`
	WorkerImbalance float64 `json:"worker_imbalance"`
	ShardImbalance  float64 `json:"shard_imbalance,omitempty"`
	Steals          int     `json:"steals,omitempty"`
	StolenTasks     int     `json:"stolen_tasks,omitempty"`
}

// FarmReport is the machine-readable result of the taskfarm-scale
// experiment: the three throughput curves plus the checksum cross-check.
type FarmReport struct {
	Description      string      `json:"description"`
	Config           farmConfigJ `json:"config"`
	KneeWorkers      int         `json:"knee_workers_jt_over_at"`
	SingleMaster     []FarmPoint `json:"single_master"`
	Sharded          []FarmPoint `json:"sharded"`
	ShardedStealing  []FarmPoint `json:"sharded_stealing"`
	ExpectedChecksum string      `json:"expected_checksum"`
	ChecksumsMatch   bool        `json:"checksums_match"`
}

type farmConfigJ struct {
	Tasks        int     `json:"tasks"`
	TaskCostMS   float64 `json:"task_cost_ms"`
	AssignCostUS float64 `json:"assign_cost_us"`
	Prefetch     int     `json:"prefetch"`
	Batch        int     `json:"batch"`
	CostSkew     float64 `json:"cost_skew"`
	LatencyMS    float64 `json:"latency_ms"`
}

// WriteJSON serializes the report.
func (r *FarmReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// FarmSim runs one farm configuration on the virtual-time engine with one
// worker per PE.
func FarmSim(cfg FarmConfig, workers, shards, batch int, steal bool) (*taskfarm.Result, error) {
	prog, err := taskfarm.BuildProgram(&taskfarm.Params{
		Tasks: cfg.Tasks, Workers: workers, Prefetch: cfg.Prefetch,
		TaskCost: cfg.TaskCost, AssignCost: cfg.AssignCost,
		CostSkew: cfg.CostSkew, Seed: 1,
		Shards: shards, Batch: batch, Steal: steal,
	})
	if err != nil {
		return nil, err
	}
	topo, err := buildTopo(workers, cfg.Latency)
	if err != nil {
		return nil, err
	}
	e, err := sim.New(topo, prog, sim.Options{MaxEvents: 500_000_000})
	if err != nil {
		return nil, err
	}
	v, _, err := e.Run()
	if err != nil {
		return nil, err
	}
	return v.(*taskfarm.Result), nil
}

// TaskfarmScale sweeps worker count across the WRONJ knee for the three
// dispatcher configurations and reports throughput, imbalance, and steal
// activity per point. The returned report feeds BENCH_taskfarm.json; the
// table is the gridsim-rendered view of the same runs.
func TaskfarmScale(w io.Writer, p Profile) (*Table, *FarmReport, error) {
	cfg := p.Farm
	t := &Table{
		Title: fmt.Sprintf("Taskfarm at scale: %d tasks, JT=%v AT=%v (single-master knee at %d workers), skew %.0fx",
			cfg.Tasks, cfg.TaskCost, cfg.AssignCost, cfg.kneeWorkers(), cfg.CostSkew),
		Header: []string{"Workers", "Config", "Shards", "Makespan (ms)", "Tasks/s",
			"Imb(workers)", "Imb(shards)", "Steals", "Stolen"},
	}
	rep := &FarmReport{
		Description: "Taskfarm throughput vs worker count, one worker per PE, across the single-master WRONJ knee (JT/AT). " +
			"Three configurations of the one farm program over the identical task set: one dispatcher shard granting one task per message " +
			"(the single master), sharded dispatchers (guided batched grants), " +
			"sharded plus randomized work stealing. CostSkew ramps per-task cost across the task space, so static shard " +
			"ownership is imbalanced and stealing has real work to move. Regenerate with: gridsim -experiment taskfarm-scale -json BENCH_taskfarm.json",
		Config: farmConfigJ{
			Tasks: cfg.Tasks, TaskCostMS: ms(cfg.TaskCost),
			AssignCostUS: float64(cfg.AssignCost) / float64(time.Microsecond),
			Prefetch:     cfg.Prefetch, Batch: cfg.Batch, CostSkew: cfg.CostSkew,
			LatencyMS: ms(cfg.Latency),
		},
		KneeWorkers:      cfg.kneeWorkers(),
		ExpectedChecksum: fmt.Sprintf("%#x", taskfarm.ExpectedChecksum(cfg.Tasks)),
		ChecksumsMatch:   true,
	}
	want := taskfarm.ExpectedChecksum(cfg.Tasks)

	type variant struct {
		name   string
		shards func(workers int) int
		batch  int
		steal  bool
		curve  *[]FarmPoint
	}
	variants := []variant{
		{"single", func(int) int { return 1 }, 1, false, &rep.SingleMaster},
		{"sharded", cfg.shardsFor, cfg.Batch, false, &rep.Sharded},
		{"sharded+steal", cfg.shardsFor, cfg.Batch, true, &rep.ShardedStealing},
	}
	for _, workers := range cfg.Workers {
		for _, v := range variants {
			shards := v.shards(workers)
			res, err := FarmSim(cfg, workers, shards, v.batch, v.steal)
			if err != nil {
				return nil, nil, fmt.Errorf("taskfarm-scale %s W=%d: %w", v.name, workers, err)
			}
			if res.Checksum != want {
				rep.ChecksumsMatch = false
			}
			pt := FarmPoint{
				Workers:         workers,
				Shards:          shards,
				MakespanMS:      ms(res.Makespan),
				TasksPerSec:     float64(cfg.Tasks) / res.Makespan.Seconds(),
				Checksum:        fmt.Sprintf("%#x", res.Checksum),
				WorkerImbalance: taskfarm.Imbalance(res.PerWorker),
				Steals:          res.Steals,
				StolenTasks:     res.StolenTask,
			}
			shardImb := "-"
			if shards > 1 {
				pt.ShardImbalance = taskfarm.Imbalance(res.PerShard)
				shardImb = fmt.Sprintf("%.2f", pt.ShardImbalance)
			}
			*v.curve = append(*v.curve, pt)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", workers), v.name, fmt.Sprintf("%d", shards),
				fmt.Sprintf("%.1f", pt.MakespanMS),
				fmt.Sprintf("%.0f", pt.TasksPerSec),
				fmt.Sprintf("%.2f", pt.WorkerImbalance),
				shardImb,
				fmt.Sprintf("%d", res.Steals),
				fmt.Sprintf("%d", res.StolenTask),
			})
			progress(w, "taskfarm-scale %-13s W=%-6d S=%-3d  %10.1f ms  %12.0f tasks/s  steals=%d\n",
				v.name, workers, shards, pt.MakespanMS, pt.TasksPerSec, res.Steals)
		}
	}
	return t, rep, nil
}
