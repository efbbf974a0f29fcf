package admission

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/topology"
)

// equalityEpochs caps the replayed horizon: 10 epochs cover every archetype
// event of interest (batch arrival, bursts, the CI-sized flash-crowd spike
// at epoch 4 and its expiry) while keeping the solves affordable.
const equalityEpochs = 10

// ciSized mirrors the scenario test suite's convention: shrink each
// archetype so exact solvers stay fast (also under -race) while every
// structural feature — arrival process, class mix, commitment churn —
// survives.
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

// driftView is the deterministic stand-in for a forecaster: the (λ̂, σ̂) a
// committed slice reports at epoch t. It depends only on (name, epoch), so
// the engine and the serial reference feed their solvers identical drift —
// low enough σ̂ that reservations genuinely shrink, varied enough that every
// steady epoch moves costs and RHS (the warm-rebind path).
func driftView(name string, sla slice.SLA, t int) (lambdaHat, sigma float64) {
	h := 0
	for _, c := range name {
		h = h*31 + int(c)
	}
	phase := float64(h%97) + 0.7*float64(t)
	frac := 0.25 + 0.2*(math.Sin(phase)+1)/2 // λ̂ ∈ [0.25Λ, 0.45Λ]
	return frac * sla.RateMbps, 0.08 + 0.04*(math.Cos(phase)+1)/2
}

// refRequest is one tenant request in flight through the replay protocol.
type refRequest struct {
	name    string
	sla     slice.SLA
	arrival int
}

// refMember is a committed slice in the serial reference.
type refMember struct {
	name      string
	sla       slice.SLA
	lambdaHat float64
	sigma     float64
	remaining int
	cu        int
}

// requestsOf converts a compiled scenario into the admission request stream
// (names, SLAs, arrival epochs — the solver-facing view of cfg.Slices).
func requestsOf(cfg sim.Config) []refRequest {
	reqs := make([]refRequest, len(cfg.Slices))
	for i, sp := range cfg.Slices {
		sla := slice.SLA{Template: sp.Template, MeanMbps: sp.MeanMbps, Duration: sp.Duration}.
			WithPenaltyFactor(sp.PenaltyFactor)
		reqs[i] = refRequest{name: sp.Name, sla: sla, arrival: sp.ArrivalEpoch}
	}
	return reqs
}

// serialReplay runs the admission protocol on a single goroutine with none
// of the engine's machinery — no queue, no batcher, no shards — solving
// each epoch with a plain serial session: the ground truth the engine must
// match decision-for-decision. (Warm-vs-cold solver equivalence is its own
// contract, pinned by the internal/core and internal/sim equality tests;
// this test isolates the serving layer on top.)
func serialReplay(t *testing.T, cfg sim.Config, reqs []refRequest, algorithm string, reoffer bool) []string {
	t.Helper()
	paths := cfg.Net.Paths(cfg.KPaths)
	sched, err := topology.NewSchedule(cfg.Net, cfg.Events)
	if err != nil {
		t.Fatal(err)
	}
	var solve func(inst *core.Instance) (*core.Decision, error)
	switch algorithm {
	case "benders":
		solve = core.NewBendersSession(core.BendersOptions{}).Solve
	case "kac":
		solve = func(inst *core.Instance) (*core.Decision, error) {
			return core.SolveKAC(inst)
		}
	default:
		solve = core.SolveDirect
	}

	var committed []*refMember
	var queue []refRequest // undecided (arrived or re-offered) requests
	var lines []string
	for epoch := 0; epoch < equalityEpochs; epoch++ {
		// Each request arrives exactly once; the re-offered rejected ones
		// are already in the queue.
		for _, r := range reqs {
			if r.arrival == epoch {
				queue = append(queue, r)
			}
		}
		batch := append([]refRequest(nil), queue...)
		sort.Slice(batch, func(i, j int) bool { return batch[i].name < batch[j].name })

		for _, m := range committed {
			m.lambdaHat, m.sigma = driftView(m.name, m.sla, epoch)
		}
		specs := make([]core.TenantSpec, 0, len(committed)+len(batch))
		for _, m := range committed {
			specs = append(specs, core.TenantSpec{
				Name: m.name, SLA: m.sla, LambdaHat: m.lambdaHat, Sigma: m.sigma,
				RemainingEpochs: m.remaining, Committed: true, CommittedCU: m.cu,
			})
		}
		for _, r := range batch {
			specs = append(specs, newTenantSpec(Request{Name: r.name, SLA: r.sla}))
		}
		var dec *core.Decision
		if len(specs) > 0 {
			inst := &core.Instance{
				Net: sched.At(epoch), Paths: paths, Tenants: specs,
				Overbook: algorithm != "no-overbooking", BigM: 1e4,
			}
			var err error
			dec, err = solve(inst)
			if err != nil {
				t.Fatalf("reference epoch %d: %v", epoch, err)
			}
		} else {
			dec = &core.Decision{}
		}
		lines = append(lines, fingerprint(epoch, specNames(specs), dec))

		// Commit, re-offer, advance.
		base := len(committed)
		queue = queue[:0]
		for bi, r := range batch {
			if dec.Accepted[base+bi] {
				committed = append(committed, &refMember{
					name: r.name, sla: r.sla,
					lambdaHat: r.sla.RateMbps, sigma: 1,
					remaining: maxInt(r.sla.Duration, 1),
					cu:        dec.CU[base+bi],
				})
			} else if reoffer {
				queue = append(queue, r)
			}
		}
		keep := committed[:0]
		for _, m := range committed {
			m.remaining--
			if m.remaining > 0 {
				keep = append(keep, m)
			}
		}
		committed = keep
	}
	return lines
}

// engineReplay drives the same protocol through the engine: arrivals are
// submitted concurrently (order must not matter), each epoch is one
// DecideRound, re-offers are resubmissions, lifecycle is Advance.
func engineReplay(t *testing.T, cfg sim.Config, reqs []refRequest, algorithm string, reoffer bool, shards int) []string {
	t.Helper()
	e := New(Config{Shards: shards, QueueDepth: 4 * len(reqs)})
	if err := e.AddDomain("", DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: algorithm}); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	// The engine receives the same capacity trajectory as the serial
	// reference's schedule: the epoch-sorted event stream, delivered at each
	// epoch boundary via ApplyTopology (set semantics make the accumulated
	// stream equal to the schedule's prefix at every epoch).
	sched, err := topology.NewSchedule(cfg.Net, cfg.Events)
	if err != nil {
		t.Fatal(err)
	}
	sortedEvents := sched.Events()

	type live struct {
		req refRequest
		tk  *Ticket
	}
	var inflight []live
	var lines []string
	for epoch := 0; epoch < equalityEpochs; epoch++ {
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
		// Concurrent submission: the canonical round order must erase
		// whatever interleaving the goroutines produce.
		tks := make([]*Ticket, len(offer))
		var wg sync.WaitGroup
		for i := range offer {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tk, err := e.Submit(Request{Name: offer[i].name, SLA: offer[i].sla})
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

		for _, name := range mustCommitted(t, e) {
			lh, sg := driftView(name, slaOf(reqs, name), epoch)
			if err := e.UpdateForecasts("", []ForecastUpdate{{Name: name, LambdaHat: lh, Sigma: sg}}); err != nil {
				t.Fatal(err)
			}
		}
		r, err := e.DecideRound("")
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fingerprint(epoch, r.Names, r.Decision))

		// Re-offer rejected requests next epoch by resubmission.
		var still []live
		for _, lv := range inflight {
			out, ok := lv.tk.Outcome()
			if !ok {
				t.Fatalf("epoch %d: ticket %s undecided after round", epoch, lv.req.name)
			}
			if !out.Admitted && reoffer {
				tk, err := e.Submit(Request{Name: lv.req.name, SLA: lv.req.sla})
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

// TestEngineMatchesSerialOnArchetypes is the acceptance gate: on every
// scenario archetype, the engine — warm sessions, canonical batching,
// concurrent submitters, any shard count — produces the same admission
// decisions, placements and objective as a cold serial replay.
func TestEngineMatchesSerialOnArchetypes(t *testing.T) {
	for _, spec := range scenario.Archetypes() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			spec := ciSized(spec)
			cfg, err := spec.Compile(42)
			if err != nil {
				t.Fatal(err)
			}
			reqs := requestsOf(cfg)
			want := serialReplay(t, cfg, reqs, spec.Algorithm, spec.ReofferPending)
			for _, shards := range []int{1, 3} {
				got := engineReplay(t, cfg, reqs, spec.Algorithm, spec.ReofferPending, shards)
				if diff := firstDiff(want, got); diff != "" {
					t.Fatalf("shards=%d diverged from serial reference:\n%s", shards, diff)
				}
			}
		})
	}
}

// --- small helpers ---

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
			return fmt.Sprintf("epoch %d:\n  serial: %s\n  engine: %s", i, want[i], g)
		}
	}
	return ""
}

func specNames(specs []core.TenantSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

func slaOf(reqs []refRequest, name string) slice.SLA {
	for _, r := range reqs {
		if r.name == name {
			return r.sla
		}
	}
	return slice.SLA{}
}

func mustCommitted(t *testing.T, e *Engine) []string {
	t.Helper()
	names, err := e.Committed("")
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func containsReq(rs []refRequest, name string) bool {
	for _, r := range rs {
		if r.name == name {
			return true
		}
	}
	return false
}

func containsMember(ms []*refMember, name string) bool {
	for _, m := range ms {
		if m.name == name {
			return true
		}
	}
	return false
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
