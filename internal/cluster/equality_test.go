package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/monitor"
	"repro/internal/reopt"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/yield"
)

// The distributed determinism pin: playing the closed loop with the
// engine's solves dispatched over the wire — any worker count, and across
// a mid-run worker loss — must reproduce the single-process run bit for
// bit. Both sides play the scenario through the reopt.World that reopt's
// TestStackDecidesLikeSimulator holds to sim.Run, so on the archetypes
// both pins run the two compose: sim == single process == cluster.

const equalityEpochs = 10

// epochTrace is what one epoch of the closed loop decided: the round's
// admissions and rejections, the yield it settled, and the controller's
// exported state after the step — forecasters and the reservations in
// force, placements included.
type epochTrace struct {
	Admitted, Rejected []string
	Settled            []yield.Entry
	State              reopt.ControllerState
}

// closedLoop plays the compiled scenario through an engine whose default
// domain may (exec != nil) route solves through the cluster, its closed-loop
// controller, and a reopt.World. onEpoch runs before each epoch — the kill
// hook.
func closedLoop(t *testing.T, cfg sim.Config, algorithm string, exec admission.Executor, onEpoch func(epoch int)) []epochTrace {
	t.Helper()
	e := admission.New(admission.Config{})
	dc := admission.DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: algorithm, Executor: exec}
	if err := e.AddDomain("", dc); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	ctrl, err := reopt.New(reopt.Config{Engine: e, Store: monitor.NewStore(0), HWPeriod: cfg.HWPeriod})
	if err != nil {
		t.Fatal(err)
	}
	w := reopt.NewWorld(cfg)
	var trace []epochTrace
	for ctrl.Epoch() < cfg.Epochs {
		if onEpoch != nil {
			onEpoch(ctrl.Epoch())
		}
		p, err := w.Play(ctrl)
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, epochTrace{Admitted: p.Round.Admitted, Rejected: p.Round.Rejected,
			Settled: p.Settled, State: ctrl.ExportState()})
	}
	return trace
}

// startCluster brings up a coordinator with n loopback workers and the
// default domain registered, and waits for full membership.
func startCluster(t *testing.T, cfg sim.Config, algorithm string, n int) (*Coordinator, map[string]func()) {
	t.Helper()
	coord := NewCoordinator(CoordinatorOptions{
		Seed:             42,
		HeartbeatTimeout: time.Minute, // kills in this test are explicit
		DispatchTimeout:  30 * time.Second,
	})
	t.Cleanup(func() { coord.Close() })
	dc := admission.DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: algorithm}
	if err := coord.RegisterDomain("", dc); err != nil {
		t.Fatal(err)
	}
	stops := map[string]func(){}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i)
		stops[id] = StartLoopbackWorker(coord, id, testLogger(t))
	}
	t.Cleanup(func() {
		for _, stop := range stops {
			stop()
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.WaitMembers(ctx, n); err != nil {
		t.Fatal(err)
	}
	return coord, stops
}

// waitMembersAtMost polls until membership has shrunk to at most n.
func waitMembersAtMost(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(c.Members()) > n {
		if time.Now().After(deadline) {
			t.Fatalf("membership stuck at %v, want <= %d", c.Members(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterMatchesSingleProcess is the distributed acceptance gate: on
// three archetypes (steady drift, flash-crowd churn, and a topology
// outage) the cluster path at worker counts 0, 1, 2 and 4 reproduces the
// single-process decision trace exactly — with no workers every round is
// declined back to the engine's own solver, and at two or more a worker is
// killed mid-run at epoch 5, which forces a rebalance of the domain onto
// a surviving worker with committed tenants and accumulated topology
// events in play.
func TestClusterMatchesSingleProcess(t *testing.T) {
	for _, name := range []string{"diurnal-drift", "flash-crowd", "outage"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := scenario.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec.Tenants, spec.Epochs = 4, equalityEpochs
			if spec.Arrivals.Kind == scenario.FlashCrowd {
				spec.Arrivals.SpikeEpoch, spec.Arrivals.SpikeSize = 4, 2
			}
			cfg, err := spec.Compile(42)
			if err != nil {
				t.Fatal(err)
			}
			cfg.SamplesPerEpoch = 8
			want := closedLoop(t, cfg, spec.Algorithm, nil, nil)
			for _, workers := range []int{0, 1, 2, 4} {
				coord, stops := startCluster(t, cfg, spec.Algorithm, workers)
				kill := func(epoch int) {
					if workers < 2 || epoch != equalityEpochs/2 {
						return
					}
					// Kill whichever worker owns the domain so the
					// rebalance genuinely moves warm state.
					owner, ok := coord.OwnerOf(admission.DefaultDomain)
					if !ok {
						t.Fatal("no owner for default domain")
					}
					stop := stops[owner]
					if stop == nil {
						t.Fatalf("owner %q has no stop handle", owner)
					}
					delete(stops, owner)
					stop()
					waitMembersAtMost(t, coord, workers-1)
				}
				got := closedLoop(t, cfg, spec.Algorithm, coord, kill)
				for e := range want {
					if !reflect.DeepEqual(want[e], got[e]) {
						t.Fatalf("workers=%d diverged from the single process at epoch %d:\n  single-process: %+v\n  cluster:        %+v",
							workers, e, want[e], got[e])
					}
				}
			}
		})
	}
}
