package reopt

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/admission"
	"repro/internal/monitor"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// TestCapacityEventsReachTheEngine is World's contract, on the outage
// archetype (BS 1 dark at epoch 3, back at epoch 6; one tenant rejected in
// epochs 0 and 1). The scenario is played straight through, and again with
// the process killed at the boundary after the first rejection and
// restarted from its exported state. Both runs must leave the engine
// holding the compiled schedule's events, in schedule order, and must
// submit each rejected offer exactly once more, into the next epoch's
// round; none is left after the last epoch, so the engines decide one
// round per epoch and take in only what those rounds decide.
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
	if len(want) == 0 || !cfg.ReofferPending {
		t.Fatal("the outage archetype compiled no events or does not re-offer; the test is vacuous")
	}

	// play runs the scenario, restarting the process before epoch kill
	// (0: never), and returns each round's batch, sorted, and rejections.
	play := func(kill int) (batches, rejected [][]string) {
		var eng *admission.Engine
		var ctrl *Controller
		var submitted, rounds uint64
		start := func(dom *admission.DomainState, st *ControllerState) {
			eng = admission.New(admission.Config{})
			if err := eng.AddDomain("", admission.DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: spec.Algorithm}); err != nil {
				t.Fatal(err)
			}
			if ctrl, err = New(Config{Engine: eng, Store: monitor.NewStore(0), HWPeriod: cfg.HWPeriod}); err != nil {
				t.Fatal(err)
			}
			if dom != nil {
				if err := eng.RestoreDomain(*dom); err != nil {
					t.Fatal(err)
				}
				if err := ctrl.RestoreState(*st); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}
		}
		stop := func() {
			if err := eng.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			m := eng.Metrics()
			submitted, rounds = submitted+m.Submitted, rounds+m.Rounds
			eng.Stop()
		}
		w := NewWorld(cfg)
		start(nil, nil)
		for e := 0; e < cfg.Epochs; e++ {
			if e == kill {
				dom, err := eng.ExportDomain(admission.DefaultDomain)
				if err != nil {
					t.Fatal(err)
				}
				st := ctrl.ExportState()
				stop()
				start(&dom, &st)
				w.Redeliver(ctrl)
			}
			p, err := w.Play(ctrl)
			if err != nil {
				t.Fatal(err)
			}
			batch := append(append([]string(nil), p.Round.Admitted...), p.Round.Rejected...)
			sort.Strings(batch)
			batches, rejected = append(batches, batch), append(rejected, p.Round.Rejected)
		}
		got, err := eng.TopologyEvents("")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kill=%d: engine applied %v, want the compiled schedule %v", kill, got, want)
		}
		stop()
		decided := uint64(0)
		for _, b := range batches {
			decided += uint64(len(b))
		}
		if rounds != uint64(cfg.Epochs) || submitted != decided {
			t.Fatalf("kill=%d: engines decided %d rounds and took %d requests, want %d rounds deciding all %d",
				kill, rounds, submitted, cfg.Epochs, decided)
		}
		return batches, rejected
	}

	batches, rejected := play(0)
	kill := 0
	for e := 0; e+1 < cfg.Epochs; e++ {
		want := append([]string(nil), rejected[e]...)
		for _, sp := range cfg.Slices {
			if sp.ArrivalEpoch == e+1 {
				want = append(want, sp.Name)
			}
		}
		sort.Strings(want)
		if !reflect.DeepEqual(batches[e+1], want) {
			t.Fatalf("epoch %d's round decided %v, want epoch %d's rejections plus its arrivals %v", e+1, batches[e+1], e, want)
		}
		if kill == 0 && len(rejected[e]) > 0 {
			kill = e + 1
		}
	}
	if kill == 0 {
		t.Fatal("no round rejected an offer before the last epoch; the re-offer half is vacuous")
	}
	if kb, kr := play(kill); !reflect.DeepEqual(kb, batches) || !reflect.DeepEqual(kr, rejected) {
		t.Fatalf("restart before epoch %d: rounds decided %v, rejected %v; uninterrupted %v, %v", kill, kb, kr, batches, rejected)
	}
}
