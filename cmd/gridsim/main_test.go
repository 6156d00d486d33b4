package main

import (
	"reflect"
	"testing"
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
