// Package sparkpi implements the SparkPi workload: a Monte-Carlo
// approximation of π with an equal number of darts per executor and a
// single count-style reduction — the paper's purely compute-intensive
// proxy with negligible shuffling.
//
// The paper throws 10^10 darts; actually iterating 10^10 times in the
// reproduction would take CPU-hours, so each task really throws
// SampledDartsPerTask darts (the computed π is genuine) while the
// performance model charges the full 10^10/Partitions — the substitution
// documented in DESIGN.md.
package sparkpi

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"splitserve/internal/simrand"
	"splitserve/internal/spark/engine"
	"splitserve/internal/spark/rdd"
	"splitserve/internal/workloads"
)

// Config parameterises a SparkPi run.
type Config struct {
	// Darts is the modelled sample count (paper: 1e10).
	Darts int64
	// SampledDartsPerTask is how many darts are really thrown per task.
	SampledDartsPerTask int
	// Partitions (= executors; paper: 64).
	Partitions int
	// CostPerDart is CPU work units per modelled dart.
	CostPerDart float64
	// Seed for sampling.
	Seed uint64
	// ExpectedSLO for the segueing facility.
	ExpectedSLO time.Duration
}

// DefaultConfig mirrors the paper's Figure 9 setup.
func DefaultConfig() Config {
	return Config{
		Darts:               1e10,
		SampledDartsPerTask: 1_000_000,
		Partitions:          64,
		CostPerDart:         0.4,
		Seed:                3,
		ExpectedSLO:         time.Minute,
	}
}

// tally is one task's result row.
type tally struct {
	In    int64
	Total int64
}

// Workload is the SparkPi workload.
type Workload struct {
	cfg  Config
	name string // "sparkpi-<Darts as %g>", built once in New
}

var _ workloads.Workload = (*Workload)(nil)

// New returns a SparkPi workload.
func New(cfg Config) *Workload {
	if cfg.Darts <= 0 || cfg.Partitions <= 0 {
		panic("sparkpi: invalid config")
	}
	if cfg.SampledDartsPerTask <= 0 {
		cfg.SampledDartsPerTask = 1_000_000
	}
	if cfg.CostPerDart <= 0 {
		cfg.CostPerDart = 0.4
	}
	return &Workload{cfg: cfg, name: workloadName(cfg.Darts)}
}

// workloadName is the name of a run of darts: "sparkpi-%g" of the count
// as a float64, built without fmt.
func workloadName(darts int64) string {
	var buf [32]byte
	return string(strconv.AppendFloat(append(buf[:0], "sparkpi-"...), float64(darts), 'g', -1, 64))
}

// Name implements workloads.Workload.
func (w *Workload) Name() string { return w.name }

// DefaultParallelism implements workloads.Workload.
func (w *Workload) DefaultParallelism() int { return w.cfg.Partitions }

// SLO implements workloads.Workload.
func (w *Workload) SLO() time.Duration { return w.cfg.ExpectedSLO }

// Plan builds the one-stage dataflow.
func (w *Workload) Plan(ctx *rdd.Context) *rdd.RDD {
	cfg := w.cfg
	dartsPerTask := cfg.Darts / int64(cfg.Partitions)
	return ctx.Source("darts", cfg.Partitions, func(p int) []rdd.Row {
		rng := simrand.New(cfg.Seed + uint64(p)*0x9e3779b97f4a7c15)
		in := int64(0)
		for i := 0; i < cfg.SampledDartsPerTask; i++ {
			x := rng.Float64()*2 - 1
			y := rng.Float64()*2 - 1
			if x*x+y*y <= 1 {
				in++
			}
		}
		// Scale the sampled tally to the modelled dart count.
		scale := float64(dartsPerTask) / float64(cfg.SampledDartsPerTask)
		return []rdd.Row{tally{
			In:    int64(float64(in) * scale),
			Total: dartsPerTask,
		}}
		// One output row per task; the source cost below charges the full
		// modelled dart count.
	}, float64(cfg.Darts)/float64(cfg.Partitions)*cfg.CostPerDart, 16)
}

// Run implements workloads.Workload.
func (w *Workload) Run(c *engine.Cluster) (*workloads.Report, error) {
	return workloads.Timed(c, w.Name(), func() (string, int, error) {
		ctx := rdd.NewContext()
		job, err := c.RunJob(w.Plan(ctx), w.Name())
		if err != nil {
			return "", 0, err
		}
		var in, total int64
		for _, r := range job.Rows() {
			t := r.(tally)
			in += t.In
			total += t.Total
		}
		if total == 0 {
			return "", 0, fmt.Errorf("sparkpi: no darts thrown")
		}
		pi := 4 * float64(in) / float64(total)
		answer := fmt.Sprintf("pi ≈ %.5f from %g darts", pi, float64(total))
		if math.Abs(pi-math.Pi) > 0.01 {
			return "", 0, fmt.Errorf("sparkpi: implausible estimate %s", answer)
		}
		return answer, 1, nil
	})
}
