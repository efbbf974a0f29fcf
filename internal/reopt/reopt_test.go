package reopt

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/monitor"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/yield"
)

// loopEpochs caps the replayed horizon CI-side: enough for forecasters to
// warm up, reservations to rescale, and re-offered tenants to be admitted
// into the freed headroom.
const loopEpochs = 10

// ciScenario compiles a named archetype shrunk the same way the admission
// equality suite shrinks it, so exact solvers stay affordable under -race.
// It pins the monitoring density both drivers emit with: Compile leaves it
// for sim.Run to default, but here the TEST plays the data plane, and the
// generators' draw sequence depends on it.
func ciScenario(t testing.TB, name string) (scenario.Spec, sim.Config) {
	t.Helper()
	s, err := scenario.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s.Tenants, s.Epochs = min(s.Tenants, 4), loopEpochs
	if s.Arrivals.Kind == scenario.FlashCrowd {
		s.Arrivals.SpikeEpoch, s.Arrivals.SpikeSize = 4, 2
	}
	cfg, err := s.Compile(42)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SamplesPerEpoch == 0 {
		cfg.SamplesPerEpoch = 8
	}
	return s, cfg
}

// loopTrace is one run's full fingerprint: per-epoch decisions,
// reservation rescalings and settled yield, plus the final ledger.
type loopTrace struct {
	lines  []string
	ledger yield.Summary
}

func (lt *loopTrace) String() string { return strings.Join(lt.lines, "\n") }

// request is one tenant offer in flight through either driver.
type request struct {
	spec sim.SliceSpec
	sla  slice.SLA
}

func requestsOf(cfg sim.Config) []request {
	out := make([]request, len(cfg.Slices))
	for i, sp := range cfg.Slices {
		out[i] = request{
			spec: sp,
			sla: slice.SLA{Template: sp.Template, MeanMbps: sp.MeanMbps, Duration: sp.Duration}.
				WithPenaltyFactor(sp.PenaltyFactor),
		}
	}
	return out
}

func fingerprint(epoch int, names []string, dec *core.Decision, settled []yield.Entry, rescaled int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d exp=%.4f rescaled=%d:", epoch, dec.Revenue(), rescaled)
	for i, name := range names {
		if i < len(dec.Accepted) && dec.Accepted[i] {
			fmt.Fprintf(&b, " %s@cu%d%v", name, dec.CU[i], dec.PathIdx[i])
		}
	}
	total := 0.0
	for _, e := range settled {
		total += e.Realized
	}
	fmt.Fprintf(&b, " settled=%.9g/%d", total, len(settled))
	return b.String()
}

// worldLoop plays the compiled scenario through the full stack: an
// admission engine at the given shard count, the closed-loop controller,
// and the World playing the tenants and the data plane.
func worldLoop(t testing.TB, cfg sim.Config, algorithm string, shards, reoptEvery int) *loopTrace {
	t.Helper()
	ledger := yield.NewLedger()
	eng := admission.New(admission.Config{Shards: shards, QueueDepth: 1024, Ledger: ledger})
	if err := eng.AddDomain("", admission.DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: algorithm}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	ctrl, err := New(Config{
		Engine: eng, Store: monitor.NewStore(0), Ledger: ledger,
		HWPeriod: cfg.HWPeriod, ReoptEvery: reoptEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(cfg)
	lt := &loopTrace{}
	for ctrl.Epoch() < cfg.Epochs {
		p, err := w.Play(ctrl)
		if err != nil {
			t.Fatal(err)
		}
		lt.lines = append(lt.lines, fingerprint(p.Epoch, p.Round.Names, p.Round.Decision, p.Settled, p.Rescaled))
	}
	lt.ledger = ledger.Snapshot()
	return lt
}

// serialMember is a committed slice in the machinery-free reference.
type serialMember struct {
	req       request
	lambdaHat float64
	sigma     float64
	remaining int
	cu        int
	reserved  []float64
}

// serialClosedLoop replays the identical protocol with none of the
// engine's or controller's machinery: one goroutine, a plain warm session,
// hand-rolled forecast trackers and ledger booking. The ground truth the
// stack must match bit for bit.
func serialClosedLoop(t testing.TB, cfg sim.Config, algorithm string, reoptEvery int, reoffer bool) *loopTrace {
	t.Helper()
	store := monitor.NewStore(0)
	ledger := yield.NewLedger()
	paths := cfg.Net.Paths(cfg.KPaths)
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

	hwPeriod := cfg.HWPeriod
	if hwPeriod == 0 {
		hwPeriod = 12
	}
	reqs := requestsOf(cfg)
	trackers := map[string]*forecast.Adaptive{}
	gens := map[string][]traffic.Generator{}
	var committed []*serialMember
	var settleSet []*serialMember // reservations in force for the prior epoch
	var settleEpoch int
	var queue []request
	lt := &loopTrace{}

	for epoch := 0; epoch < loopEpochs; epoch++ {
		for _, r := range reqs {
			if r.spec.ArrivalEpoch == epoch {
				queue = append(queue, r)
			}
		}

		// 1. settle the prior epoch against the snapshot taken after the
		// prior round (includes slices that expired at the boundary).
		var settled []yield.Entry
		for _, m := range settleSet {
			as := yield.NewAssessment(m.req.sla.RateMbps)
			for b := range m.reserved {
				for _, sm := range store.ElementEpochSamples(m.req.spec.Name, monitor.LoadMetric, monitor.BSElement(b), settleEpoch) {
					as.Sample(sm.Value, m.reserved[b])
				}
			}
			if as.Samples() == 0 {
				continue
			}
			e := as.Entry(m.req.spec.Name, settleEpoch, m.req.sla.Reward, m.req.sla.Penalty)
			ledger.Book(e)
			settled = append(settled, e)
		}

		// 2. observe + forecast views.
		reoptNow := reoptEvery > 0 && epoch%reoptEvery == 0
		for _, m := range committed {
			tr := trackers[m.req.spec.Name]
			if tr == nil {
				tr = forecast.NewAdaptive(0.5, 0.05, 0.15, hwPeriod)
				trackers[m.req.spec.Name] = tr
			}
			if epoch > 0 {
				peak, ok := 0.0, false
				for b := range m.reserved {
					for _, sm := range store.ElementEpochSamples(m.req.spec.Name, monitor.LoadMetric, monitor.BSElement(b), epoch-1) {
						if !ok || sm.Value > peak {
							peak, ok = sm.Value, true
						}
					}
				}
				if ok {
					tr.Observe(peak)
				}
			}
			if reoptNow {
				m.lambdaHat, m.sigma = forecast.View(tr, m.req.sla.RateMbps, 0)
			}
		}

		// 3. one round: committed in admission order, batch sorted by name.
		batch := append([]request(nil), queue...)
		sort.Slice(batch, func(i, j int) bool { return batch[i].spec.Name < batch[j].spec.Name })
		specs := make([]core.TenantSpec, 0, len(committed)+len(batch))
		names := make([]string, 0, cap(specs))
		for _, m := range committed {
			specs = append(specs, core.TenantSpec{
				Name: m.req.spec.Name, SLA: m.req.sla,
				LambdaHat: m.lambdaHat, Sigma: m.sigma,
				RemainingEpochs: m.remaining, Committed: true, CommittedCU: m.cu,
			})
			names = append(names, m.req.spec.Name)
		}
		for _, r := range batch {
			remaining := r.sla.Duration
			if remaining < 1 {
				remaining = 1
			}
			specs = append(specs, core.TenantSpec{
				Name: r.spec.Name, SLA: r.sla,
				LambdaHat: r.sla.RateMbps, Sigma: 1,
				RemainingEpochs: remaining,
			})
			names = append(names, r.spec.Name)
		}
		dec := &core.Decision{}
		if len(specs) > 0 {
			inst := &core.Instance{
				Net: cfg.Net, Paths: paths, Tenants: specs,
				Overbook: algorithm != "no-overbooking", BigM: 1e4,
			}
			var err error
			dec, err = solve(inst)
			if err != nil {
				t.Fatalf("serial epoch %d: %v", epoch, err)
			}
		}
		ledger.BookExpected(admission.DefaultDomain, dec.Revenue())

		// Rescale accounting + commit, exactly as the stack does it.
		rescaled := 0
		for i, m := range committed {
			if dec.Accepted[i] {
				if prev, now := totalOf(m.reserved), totalOf(dec.Z[i]); absDiff(prev, now) > rescaleTol {
					rescaled++
				}
				m.cu = dec.CU[i]
				m.reserved = append(m.reserved[:0], dec.Z[i]...)
			}
		}
		base := len(committed)
		queue = queue[:0]
		for bi, r := range batch {
			if dec.Accepted[base+bi] {
				remaining := specs[base+bi].RemainingEpochs
				committed = append(committed, &serialMember{
					req: r, lambdaHat: r.sla.RateMbps, sigma: 1,
					remaining: remaining, cu: dec.CU[base+bi],
					reserved: append([]float64(nil), dec.Z[base+bi]...),
				})
				gs := make([]traffic.Generator, cfg.Net.NumBS())
				for b := range gs {
					gs[b] = sim.NewGenerator(cfg, r.spec, b)
				}
				gens[r.spec.Name] = gs
			} else if reoffer {
				queue = append(queue, r)
			}
		}
		lt.lines = append(lt.lines, fingerprint(epoch, names, dec, settled, rescaled))

		// Snapshot in-force reservations and play the epoch's traffic —
		// slices expiring with this epoch still served it — then advance
		// lifecycles.
		settleSet = append(settleSet[:0:0], committed...)
		settleEpoch = epoch
		live := make([]string, 0, len(gens))
		for n := range gens {
			live = append(live, n)
		}
		sort.Strings(live)
		for _, name := range live {
			for b, g := range gens[name] {
				for theta := 0; theta < cfg.SamplesPerEpoch; theta++ {
					store.Add(monitor.Sample{
						Slice: name, Metric: monitor.LoadMetric, Element: monitor.BSElement(b),
						Epoch: epoch, Theta: theta, Value: g.Sample(epoch, theta),
					})
				}
			}
		}
		keep := committed[:0]
		for _, m := range committed {
			m.remaining--
			if m.remaining > 0 {
				keep = append(keep, m)
			} else {
				delete(trackers, m.req.spec.Name)
				delete(gens, m.req.spec.Name)
			}
		}
		committed = keep
	}
	lt.ledger = ledger.Snapshot()
	return lt
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
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
	if len(got) > len(want) {
		return fmt.Sprintf("engine produced %d extra epochs", len(got)-len(want))
	}
	return ""
}

// TestClosedLoopMatchesSerialAcrossShards is the PR's acceptance gate: on
// the drift archetypes, the full closed-loop stack — engine shards, warm
// sessions, concurrent submitters, the reopt controller — produces
// bit-identical decision traces AND yield ledgers at 1, 2 and 5 shards,
// all equal to the machinery-free serial replay.
func TestClosedLoopMatchesSerialAcrossShards(t *testing.T) {
	for _, name := range []string{"diurnal-drift", "flash-drift"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, cfg := ciScenario(t, name)
			want := serialClosedLoop(t, cfg, spec.Algorithm, 1, spec.ReofferPending)
			for _, shards := range []int{1, 2, 5} {
				got := worldLoop(t, cfg, spec.Algorithm, shards, 1)
				if diff := firstDiff(want.lines, got.lines); diff != "" {
					t.Fatalf("shards=%d diverged from serial replay:\n%s", shards, diff)
				}
				if !reflect.DeepEqual(want.ledger, got.ledger) {
					t.Fatalf("shards=%d ledger diverged:\nserial: %+v\nengine: %+v", shards, want.ledger, got.ledger)
				}
			}
		})
	}
}

// TestClosedLoopBeatsStaticOnDrift pins the paper's economics end to end:
// on the drift archetype, forecast-driven reoptimization must realize
// strictly more net yield than the same engine with frozen full-SLA
// forecasts — the headroom it frees admits the re-offered overflow — and
// must do so by rescaling committed reservations online.
func TestClosedLoopBeatsStaticOnDrift(t *testing.T) {
	spec, cfg := ciScenario(t, "diurnal-drift")
	closed := worldLoop(t, cfg, spec.Algorithm, 2, 1)
	static := worldLoop(t, cfg, spec.Algorithm, 2, -1)

	if !(closed.ledger.Realized > static.ledger.Realized) {
		t.Fatalf("closed-loop realized yield %.6g does not beat static %.6g\nclosed:\n%s\nstatic:\n%s",
			closed.ledger.Realized, static.ledger.Realized, closed, static)
	}
	rescales := 0
	for _, line := range closed.lines {
		var e int
		var exp float64
		var r int
		if _, err := fmt.Sscanf(line, "epoch %d exp=%g rescaled=%d:", &e, &exp, &r); err == nil {
			rescales += r
		}
	}
	if rescales == 0 {
		t.Fatalf("closed loop never rescaled a committed reservation:\n%s", closed)
	}
	for _, line := range static.lines {
		if !strings.Contains(line, "rescaled=0:") {
			t.Fatalf("static run rescaled a reservation: %s", line)
		}
	}
}

// TestExpiringSlicesSettleFullLifetime guards the data-plane ordering a
// review caught both drivers getting wrong: a slice expiring with epoch t
// still served t, so its traffic must be played before its generators are
// retired — otherwise the settlement snapshot finds no samples and the
// slice's final epoch silently drops off the ledger. Every short-lived
// slice the ledger knows must have settled its entire lifetime.
func TestExpiringSlicesSettleFullLifetime(t *testing.T) {
	spec, cfg := ciScenario(t, "flash-drift")
	durOf := map[string]int{}
	for _, sp := range cfg.Slices {
		if sp.Duration < loopEpochs-sp.ArrivalEpoch {
			durOf[sp.Name] = sp.Duration // expires inside the run
		}
	}
	if len(durOf) == 0 {
		t.Fatal("archetype has no short-lived slices; the test is vacuous")
	}
	lt := worldLoop(t, cfg, spec.Algorithm, 2, 1)
	settledShort := 0
	for _, st := range lt.ledger.PerSlice {
		want, shortLived := durOf[st.Slice]
		if !shortLived {
			continue
		}
		settledShort++
		if st.Epochs != want {
			t.Errorf("slice %s settled %d epochs, want its full %d-epoch lifetime", st.Slice, st.Epochs, want)
		}
	}
	if settledShort == 0 {
		t.Fatalf("no short-lived slice was admitted and settled; ledger: %+v", lt.ledger.PerSlice)
	}
}

// TestControllerSettlesExpiringSlices pins the boundary case the in-force
// snapshot exists for: a slice whose lifetime ends with epoch e still has
// its epoch-e traffic settled on the next step, after it left the engine.
func TestControllerSettlesExpiringSlices(t *testing.T) {
	net := topology.Testbed()
	store := monitor.NewStore(0)
	eng := admission.New(admission.Config{})
	if err := eng.AddDomain("", admission.DomainConfig{Net: net, Algorithm: "direct"}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	ctrl, err := New(Config{Engine: eng, Store: store})
	if err != nil {
		t.Fatal(err)
	}

	sla := slice.SLA{Template: slice.Table1(slice.MMTC), Duration: 1}.WithPenaltyFactor(1)
	tk, err := eng.Submit(admission.Request{Name: "oneshot", SLA: sla})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctrl.Step()
	if err != nil {
		t.Fatal(err)
	}
	out, ok := tk.Outcome()
	if !ok || !out.Admitted {
		t.Fatalf("one-epoch slice not admitted: %+v", out)
	}
	if len(rep.Expired) != 1 || rep.Expired[0] != "oneshot" {
		t.Fatalf("expected the slice to expire with its only epoch, got %v", rep.Expired)
	}
	// Its epoch-0 traffic arrives after the slice is gone from the engine.
	for b := 0; b < net.NumBS(); b++ {
		store.Add(monitor.Sample{
			Slice: "oneshot", Metric: monitor.LoadMetric, Element: monitor.BSElement(b),
			Epoch: 0, Theta: 0, Value: 4,
		})
	}
	rep, err = ctrl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Settled) != 1 || rep.Settled[0].Slice != "oneshot" || rep.Settled[0].Epoch != 0 {
		t.Fatalf("expired slice's final epoch not settled: %+v", rep.Settled)
	}
	if s := ctrl.Ledger().Snapshot(); s.Entries != 1 || s.Realized != sla.Reward {
		t.Fatalf("ledger after settling a violation-free epoch: %+v", s)
	}
}
