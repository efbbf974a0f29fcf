package cluster

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/topology"
)

// The distributed determinism pin: driving the engine with its solves
// dispatched over the wire — any worker count, and across a mid-run
// worker loss — must reproduce the single-process decision trace bit for
// bit. The drive protocol and helpers mirror the admission package's
// engine-vs-serial equality test so the two pins compose: serial ==
// single-process engine == cluster engine.

const equalityEpochs = 10

func ciSized(s scenario.Spec) scenario.Spec {
	if s.Tenants > 4 {
		s.Tenants = 4
	}
	s.Epochs = equalityEpochs
	if s.Arrivals.Kind == scenario.FlashCrowd {
		s.Arrivals.SpikeEpoch = 4
		s.Arrivals.SpikeSize = 2
	}
	return s
}

// driftView is the same deterministic forecaster stand-in the admission
// equality test uses: (λ̂, σ̂) as a pure function of (name, epoch).
func driftView(name string, sla slice.SLA, t int) (lambdaHat, sigma float64) {
	h := 0
	for _, c := range name {
		h = h*31 + int(c)
	}
	phase := float64(h%97) + 0.7*float64(t)
	frac := 0.25 + 0.2*(math.Sin(phase)+1)/2
	return frac * sla.RateMbps, 0.08 + 0.04*(math.Cos(phase)+1)/2
}

type refRequest struct {
	name    string
	sla     slice.SLA
	arrival int
}

func requestsOf(cfg sim.Config) []refRequest {
	reqs := make([]refRequest, len(cfg.Slices))
	for i, sp := range cfg.Slices {
		sla := slice.SLA{Template: sp.Template, MeanMbps: sp.MeanMbps, Duration: sp.Duration}.
			WithPenaltyFactor(sp.PenaltyFactor)
		reqs[i] = refRequest{name: sp.Name, sla: sla, arrival: sp.ArrivalEpoch}
	}
	return reqs
}

func fingerprint(epoch int, names []string, dec *core.Decision) string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d exp=%.4f:", epoch, dec.Revenue())
	for i, name := range names {
		if i < len(dec.Accepted) && dec.Accepted[i] {
			fmt.Fprintf(&b, " %s@cu%d%v", name, dec.CU[i], dec.PathIdx[i])
		}
	}
	return b.String()
}

func firstDiff(want, got []string) string {
	for i := range want {
		if i >= len(got) || want[i] != got[i] {
			g := "<missing>"
			if i < len(got) {
				g = got[i]
			}
			return fmt.Sprintf("epoch %d:\n  single-process: %s\n  cluster:        %s", i, want[i], g)
		}
	}
	return ""
}

func slaOf(reqs []refRequest, name string) slice.SLA {
	for _, r := range reqs {
		if r.name == name {
			return r.sla
		}
	}
	return slice.SLA{}
}

// engineReplay drives the full admission protocol through an engine whose
// default domain may (exec != nil) route solves through the cluster.
// onEpoch runs at the top of each epoch — the kill hook.
func engineReplay(t *testing.T, cfg sim.Config, reqs []refRequest, algorithm string, reoffer bool, exec admission.Executor, onEpoch func(epoch int)) []string {
	t.Helper()
	e := admission.New(admission.Config{QueueDepth: 4 * len(reqs)})
	dc := admission.DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: algorithm, Executor: exec}
	if err := e.AddDomain("", dc); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	sched, err := topology.NewSchedule(cfg.Net, cfg.Events)
	if err != nil {
		t.Fatal(err)
	}
	sortedEvents := sched.Events()

	type live struct {
		req refRequest
		tk  *admission.Ticket
	}
	var inflight []live
	var lines []string
	for epoch := 0; epoch < equalityEpochs; epoch++ {
		if onEpoch != nil {
			onEpoch(epoch)
		}
		var fire []topology.Event
		for _, ev := range sortedEvents {
			if ev.Epoch == epoch {
				fire = append(fire, ev)
			}
		}
		if len(fire) > 0 {
			if err := e.ApplyTopology("", fire); err != nil {
				t.Fatal(err)
			}
		}
		var offer []refRequest
		for _, r := range reqs {
			if r.arrival == epoch {
				offer = append(offer, r)
			}
		}
		tks := make([]*admission.Ticket, len(offer))
		var wg sync.WaitGroup
		for i := range offer {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tk, err := e.Submit(admission.Request{Name: offer[i].name, SLA: offer[i].sla})
				if err != nil {
					t.Errorf("submit %s: %v", offer[i].name, err)
					return
				}
				tks[i] = tk
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatalf("epoch %d: submission failed", epoch)
		}
		for i := range offer {
			inflight = append(inflight, live{req: offer[i], tk: tks[i]})
		}

		committed, err := e.Committed("")
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range committed {
			lh, sg := driftView(name, slaOf(reqs, name), epoch)
			if err := e.UpdateForecasts("", []admission.ForecastUpdate{{Name: name, LambdaHat: lh, Sigma: sg}}); err != nil {
				t.Fatal(err)
			}
		}
		r, err := e.DecideRound("")
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fingerprint(epoch, r.Names, r.Decision))

		var still []live
		for _, lv := range inflight {
			out, ok := lv.tk.Outcome()
			if !ok {
				t.Fatalf("epoch %d: ticket %s undecided after round", epoch, lv.req.name)
			}
			if !out.Admitted && reoffer {
				tk, err := e.Submit(admission.Request{Name: lv.req.name, SLA: lv.req.sla})
				if err != nil {
					t.Fatalf("re-offer %s: %v", lv.req.name, err)
				}
				still = append(still, live{req: lv.req, tk: tk})
			}
		}
		inflight = still
		if _, err := e.Advance(""); err != nil {
			t.Fatal(err)
		}
	}
	return lines
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
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := ciSized(archetypeByName(t, name))
			cfg, err := spec.Compile(42)
			if err != nil {
				t.Fatal(err)
			}
			reqs := requestsOf(cfg)
			want := engineReplay(t, cfg, reqs, spec.Algorithm, spec.ReofferPending, nil, nil)
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
				got := engineReplay(t, cfg, reqs, spec.Algorithm, spec.ReofferPending, coord, kill)
				if diff := firstDiff(want, got); diff != "" {
					t.Fatalf("workers=%d diverged from single-process engine:\n%s", workers, diff)
				}
			}
		})
	}
}

func archetypeByName(t *testing.T, name string) scenario.Spec {
	t.Helper()
	for _, s := range scenario.Archetypes() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("unknown archetype %q", name)
	return scenario.Spec{}
}
