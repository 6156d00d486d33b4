package main

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"gridmdo/internal/stencil"
)

// resultField runs gridsim run with args and returns the number after
// key in its result line.
func resultField(t *testing.T, key string, args ...string) float64 {
	t.Helper()
	var out bytes.Buffer
	if err := runApp(args, &out); err != nil {
		t.Fatalf("gridsim run %v: %v", args, err)
	}
	_, rest, ok := strings.Cut(out.String(), key+" ")
	if !ok {
		t.Fatalf("no %q in %q", key, out.String())
	}
	v, err := strconv.ParseFloat(strings.TrimRight(strings.Fields(rest)[0], ",%"), 64)
	if err != nil {
		t.Fatalf("%s in %q: %v", key, out.String(), err)
	}
	return v
}

// TestRunStencilMatchesSequential: the virtual-time run computes the
// mesh the serial reference does.
func TestRunStencilMatchesSequential(t *testing.T) {
	got := resultField(t, "checksum", "-app", "stencil", "-procs", "4", "-objects", "16",
		"-width", "64", "-steps", "6", "-warmup", "2", "-latency", "2ms")
	want := stencil.Checksum(stencil.RunSequential(64, 64, 6))
	if math.Abs(got-want) > 1e-6*math.Abs(want) {
		t.Errorf("checksum %.6f, sequential %.6f", got, want)
	}
}

// TestRunLeanMDConservesEnergy: drift within the bound internal/leanmd's
// own tests use (5%).
func TestRunLeanMDConservesEnergy(t *testing.T) {
	drift := resultField(t, "drift", "-app", "leanmd", "-procs", "8", "-cells", "3",
		"-atoms", "6", "-steps", "6", "-warmup", "2", "-latency", "4ms")
	if math.Abs(drift) > 5 {
		t.Errorf("energy drift %.4f%%, want within 5%%", drift)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-app", "taskfarm"}, "-experiment taskfarm-scale"},
		{[]string{"-app", "bogus"}, "unknown app"},
		{[]string{"-objects", "5"}, "perfect square"},
	} {
		err := runApp(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("gridsim run %v: err %v, want %q", tc.args, err, tc.want)
		}
	}
}
