package experiments

import (
	"reflect"
	"testing"
)

// TestFig5ParallelMatchesSerial pins the worker pool's contract: the sweep
// must return bit-identical points whether it runs on one worker or many.
func TestFig5ParallelMatchesSerial(t *testing.T) {
	cfg := Fig5Config{
		Topologies: []string{"Romanian"},
		SliceTypes: []string{"eMBB", "mMTC"},
		Alphas:     []float64{0.3},
		SigmaFracs: []float64{0.25},
		Penalties:  []float64{1},
		Tenants:    4, NBS: 2, Epochs: 4, KPaths: 1,
		Algorithm: "direct", Seed: 1,
	}
	serialCfg := cfg
	serialCfg.Workers = 1
	serial, err := Fig5(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallelCfg := cfg
	parallelCfg.Workers = 8
	par, err := Fig5(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel sweep diverged from serial:\nserial:   %+v\nparallel: %+v", serial, par)
	}
}

// TestFig6ParallelMatchesSerial: same contract for the heterogeneous grid.
func TestFig6ParallelMatchesSerial(t *testing.T) {
	cfg := Fig6Config{
		Topologies: []string{"Romanian"},
		Mixes:      [][2]string{{"eMBB", "mMTC"}},
		Betas:      []float64{0, 50},
		Tenants:    4, NBS: 2, Epochs: 4, KPaths: 1,
		Algorithm: "direct", Seed: 1,
	}
	serialCfg := cfg
	serialCfg.Workers = 1
	serial, err := Fig6(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallelCfg := cfg
	parallelCfg.Workers = 8
	par, err := Fig6(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel sweep diverged from serial:\nserial:   %+v\nparallel: %+v", serial, par)
	}
}
