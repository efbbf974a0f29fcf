package main

import (
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// TestCapacityEventsReachTheEngine drives the outage archetype (BS 1 dark
// at epoch 3, back at epoch 6) through both drive modes and requires the
// domain's live network to have taken the compiled schedule's events, in
// schedule order — the trajectory the simulator solves against.
func TestCapacityEventsReachTheEngine(t *testing.T) {
	spec, err := scenario.ByName("outage")
	if err != nil {
		t.Fatal(err)
	}
	spec.Tenants, spec.Epochs = 4, 8
	cfg, err := spec.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := topology.NewSchedule(cfg.Net, cfg.Events)
	if err != nil {
		t.Fatal(err)
	}
	want := sched.Events()
	if len(want) == 0 {
		t.Fatal("the outage archetype compiled no events")
	}
	for _, mode := range []string{"drift", "closed"} {
		t.Run(mode, func(t *testing.T) {
			eng := admission.New(admission.Config{})
			dc := admission.DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: spec.Algorithm}
			if err := eng.AddDomain("op0", dc); err != nil {
				t.Fatal(err)
			}
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}
			defer eng.Stop()
			var st domStats
			if mode == "drift" {
				driveDomain(eng, "op0", cfg, false, &st)
			} else {
				driveDomainClosed(eng, "op0", cfg, false, false, &st)
			}
			got, err := eng.TopologyEvents("op0")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("engine applied %v, want the compiled schedule %v", got, want)
			}
		})
	}
}
