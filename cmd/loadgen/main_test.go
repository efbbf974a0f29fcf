package main

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestCapacityEventsReachTheEngine drives the outage archetype (BS 1 dark
// at epoch 3, back at epoch 6) through both loadgen modes and requires the
// domain's live network to have taken the compiled schedule's events, in
// schedule order — the trajectory the simulator solves against. World's
// own contract is pinned in internal/reopt; this holds loadgen's wiring.
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
	for _, mode := range []string{"closed", "static"} {
		t.Run(mode, func(t *testing.T) {
			eng := admission.New(admission.Config{})
			dc := admission.DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: spec.Algorithm}
			if err := eng.AddDomain(domName(0), dc); err != nil {
				t.Fatal(err)
			}
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}
			defer eng.Stop()
			playDomain(eng, domName(0), cfg, mode == "static")
			got, err := eng.TopologyEvents(domName(0))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("engine applied %v, want the compiled schedule %v", got, want)
			}
		})
	}
}

// TestReofferDecidesOneRoundPerEpoch pins loadgen -reoffer to the
// scenario's horizon: each domain decides exactly one round per epoch, and
// a rejection in the last epoch is final — no re-offer is left for the
// engine's drain to decide in a round that belongs to no epoch.
func TestReofferDecidesOneRoundPerEpoch(t *testing.T) {
	// Two sla-mix domains of 8 tenants over 5 epochs reject in their last
	// epoch; before re-offers were held to the next epoch, the drain
	// decided 12 rounds here.
	const epochs = 5
	spec, err := scenario.ByName("sla-mix")
	if err != nil {
		t.Fatal(err)
	}
	spec.Tenants, spec.Epochs = 8, epochs
	eng := admission.New(admission.Config{})
	cfgs := make([]sim.Config, 2)
	for d := range cfgs {
		cfg, err := spec.Compile(42 + int64(d))
		if err != nil {
			t.Fatal(err)
		}
		cfg.ReofferPending = true
		cfgs[d] = cfg
		if err := eng.AddDomain(domName(d), admission.DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: spec.Algorithm}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	res := playDomains(eng, cfgs, false)
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if want := uint64(len(cfgs) * epochs); m.Rounds != want {
		t.Fatalf("engine decided %d rounds, want %d (one per domain and epoch)", m.Rounds, want)
	}
	offered := 0
	for _, r := range res {
		offered += r.admitted + r.rejected + r.shed
	}
	if offered != len(cfgs)*len(cfgs[0].Slices) {
		t.Fatalf("accounted %d offers, want each of %d domains' %d tenants once", offered, len(cfgs), len(cfgs[0].Slices))
	}
}
