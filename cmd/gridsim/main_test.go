package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gridmdo/internal/bench"
)

// The experiment list is the one place names are spelled; these checks
// run no experiment.

func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range experimentNames() {
		if name == "all" {
			t.Error(`"all" is the whole list, not an experiment`)
		}
		if seen[name] {
			t.Errorf("experiment %q listed twice", name)
		}
		seen[name] = true
	}
}

func TestAllIsRegistryOrder(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(all))
	for i, x := range all {
		got[i] = x.name
	}
	if want := experimentNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("all = %v, want %v", got, want)
	}
	one, err := selectExperiments("taskfarm-scale")
	if err != nil || len(one) != 1 || one[0].name != "taskfarm-scale" {
		t.Errorf("taskfarm-scale selected %v, err %v", one, err)
	}
}

func TestUnknownExperimentErrors(t *testing.T) {
	for _, name := range []string{"sim-scale", "telemetry", "", "Figure3"} {
		if _, err := selectExperiments(name); err == nil {
			t.Errorf("experiment %q accepted", name)
		}
	}
}

// TestFastArtifactsMatchGoldens byte-compares the fast-profile CSVs of
// every virtual-time experiment with testdata/; Tables 1 and 2 pin only
// their sim column. After a change that is meant to move them,
// regenerate each with
//
//	go run ./cmd/gridsim -experiment X -fast -skip-realtime -csv cmd/gridsim/testdata
//
// for X in figure3, table1, figure4, table2, ablations, classes, sdsc,
// irregular and taskfarm-scale.
func TestFastArtifactsMatchGoldens(t *testing.T) {
	dir := t.TempDir()
	e := &env{progress: io.Discard, profile: bench.FastProfile(), skipRealtime: true, csvDir: dir}
	for _, name := range []string{"figure3", "table1", "figure4", "table2", "ablations",
		"classes", "sdsc", "irregular", "taskfarm-scale"} {
		xs, err := selectExperiments(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := xs[0].run(e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	goldens, err := filepath.Glob("testdata/*.csv")
	if err != nil || len(goldens) != 11 {
		t.Fatalf("goldens %v, err %v; want the 11 CSVs of the virtual-time experiments", goldens, err)
	}
	for _, g := range goldens {
		want, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, filepath.Base(g)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from its golden:\n got:\n%s\nwant:\n%s", filepath.Base(g), got, want)
		}
	}
}
