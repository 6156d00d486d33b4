//go:build !race

// The sweep is single-goroutine force arithmetic, which the race detector
// slows tenfold and has nothing to check in; it runs without it.

package leanmd

import (
	"fmt"
	"testing"
)

// TestInitialConditionHoldsDriftOracle: the initial condition of every
// seed keeps the energy drift of the benchmark's LeanMD workload (6³
// cells, 12 atoms, 3 warm-up and 10 timed steps) under that workload's
// 1e-3 oracle, which a run must pass whatever seed it is given.
func TestInitialConditionHoldsDriftOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			p := DefaultParams()
			p.AtomsPerCell = 12
			p.Steps, p.Warmup = 13, 3
			p.Seed = seed
			res := runLeanMDSim(t, p, 1, 0)
			if d := res.Drift(); !(d < 1e-3) {
				t.Errorf("drift %.3g, want < 1e-3 (EWarm=%v EFinal=%v)", d, res.EWarm, res.EFinal)
			}
		})
	}
}
