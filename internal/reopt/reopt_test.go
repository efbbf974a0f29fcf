package reopt

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/monitor"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/topology"
	"repro/internal/yield"
)

// loopEpochs caps the replayed horizon CI-side: enough for forecasters to
// warm up, reservations to rescale, and re-offered tenants to be admitted
// into the freed headroom.
const loopEpochs = 10

// ciScenario compiles a named archetype shrunk to at most 4 tenants over
// loopEpochs (a flash crowd spikes 2 tenants at epoch 4), so exact solvers
// stay affordable under -race. At this size the capacity events of
// degradation and churn bind no solve; handover's and outage's do. It
// pins the monitoring density both drivers emit with: Compile leaves it
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

// loopTrace is one closed loop's fingerprint: per epoch, a line with the
// round's expected revenue, the reservations it rescaled, its admissions
// and the yield settled for the epoch before, and the admissions'
// placements with their measured peaks; plus the final ledger.
type loopTrace struct {
	lines, placed []string
	ledger        yield.Summary
}

func (lt *loopTrace) String() string { return strings.Join(lt.lines, "\n") }

// record appends one epoch. admitted holds the round's admissions in
// instance order (Name, CU, PathIdx and Peak set); settled holds the
// realized yield booked for the epoch before, in booking order. Floats
// print exactly, so equal traces are equal bit for bit.
func (lt *loopTrace) record(epoch int, exp float64, rescaled int, admitted []sim.TenantEpoch, settled []float64) {
	var line, placed strings.Builder
	fmt.Fprintf(&line, "epoch %d exp=%v rescaled=%d:", epoch, exp, rescaled)
	for _, te := range admitted {
		fmt.Fprintf(&line, " %s@cu%d%v", te.Name, te.CU, te.PathIdx)
		fmt.Fprintf(&placed, " %s@cu%d%v peak=%v", te.Name, te.CU, te.PathIdx, te.Peak)
	}
	total := 0.0
	for _, v := range settled {
		total += v
	}
	fmt.Fprintf(&line, " settled=%v/%d", total, len(settled))
	lt.lines = append(lt.lines, line.String())
	lt.placed = append(lt.placed, placed.String())
}

// simTrace derives the stack's trace from a sim.Run of the same compiled
// scenario. A slice active in epochs e−1 and e rescaled when its total
// reservation moved by more than rescaleTol. The stack settles epoch e−1
// at step e and books each round's expected revenue as it decides, so
// line e carries epoch e−1's realized revenue, and the last epoch's
// entries never reach the ledger.
func simTrace(res *sim.Result) *loopTrace {
	cfg := res.Config
	slas := map[string]slice.SLA{}
	for _, sp := range cfg.Slices {
		slas[sp.Name] = slice.SLA{Template: sp.Template, MeanMbps: sp.MeanMbps, Duration: sp.Duration}.
			WithPenaltyFactor(sp.PenaltyFactor)
	}
	ledger := yield.NewLedger()
	lt := &loopTrace{}
	var prev []sim.TenantEpoch // epoch e−1's active slices, in instance order
	for e, es := range res.Epochs {
		prevTotal := map[string]float64{}
		var settled []float64
		for _, te := range prev {
			prevTotal[te.Name] = totalOf(te.Reserved)
			settled = append(settled, te.Revenue)
			sla := slas[te.Name]
			ledger.Book(yield.Entry{
				Slice: te.Name, Epoch: e - 1, Reward: sla.Reward, Penalty: sla.Penalty * te.Dropped,
				Realized: te.Revenue, Violated: te.Violated, Samples: cfg.SamplesPerEpoch * len(te.Peak), Dropped: te.Dropped,
			})
		}
		ledger.BookExpected(admission.DefaultDomain, es.ExpectedRevenue)
		var active []sim.TenantEpoch
		rescaled := 0
		for _, te := range es.Tenants {
			if !te.Active {
				continue
			}
			if was, ok := prevTotal[te.Name]; ok && math.Abs(totalOf(te.Reserved)-was) > rescaleTol {
				rescaled++
			}
			active = append(active, te)
		}
		lt.record(e, es.ExpectedRevenue, rescaled, active, settled)
		prev = active
	}
	lt.ledger = ledger.Snapshot()
	return lt
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
	store := monitor.NewStore(0)
	ctrl, err := New(Config{
		Engine: eng, Store: store, Ledger: ledger,
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
		dec := p.Round.Decision
		var admitted []sim.TenantEpoch
		for i, name := range p.Round.Names {
			if !dec.Accepted[i] {
				continue
			}
			peak := make([]float64, cfg.Net.NumBS())
			for b := range peak {
				for _, sm := range store.ElementEpochSamples(name, monitor.LoadMetric, monitor.BSElement(b), p.Epoch) {
					peak[b] = max(peak[b], sm.Value)
				}
			}
			admitted = append(admitted, sim.TenantEpoch{Name: name, CU: dec.CU[i], PathIdx: dec.PathIdx[i], Peak: peak})
		}
		var settled []float64
		for _, e := range p.Settled {
			settled = append(settled, e.Realized)
		}
		lt.record(p.Epoch, dec.Revenue(), p.Rescaled, admitted, settled)
	}
	lt.ledger = ledger.Snapshot()
	return lt
}

func firstDiff(want, got []string) string {
	for i := range want {
		if i >= len(got) || want[i] != got[i] {
			g := "<missing>"
			if i < len(got) {
				g = got[i]
			}
			return fmt.Sprintf("epoch %d:\n  sim:   %s\n  stack: %s", i, want[i], g)
		}
	}
	if len(got) > len(want) {
		return fmt.Sprintf("the stack played %d extra epochs", len(got)-len(want))
	}
	return ""
}

// TestStackDecidesLikeSimulator holds the online stack to its one spec,
// sim.Run: on every scenario archetype, the full closed loop — engine
// shards, warm sessions, concurrent submitters, re-offers by
// resubmission, capacity events through ApplyTopology, the reopt
// controller — plays the compiled scenario at 1, 2 and 5 shards, and each
// run equals the trace derived from one sim.Run bit for bit: expected
// revenue, rescalings, admissions on their CUs and paths, settled yield,
// measured peaks (a dark BS's included, where both record zero load) and
// the ledger.
func TestStackDecidesLikeSimulator(t *testing.T) {
	for _, arch := range scenario.Archetypes() {
		t.Run(arch.Name, func(t *testing.T) {
			t.Parallel()
			spec, cfg := ciScenario(t, arch.Name)
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := simTrace(res)
			if want.ledger.Entries == 0 {
				t.Fatal("sim.Run settled nothing; the row is vacuous")
			}
			for _, shards := range []int{1, 2, 5} {
				got := worldLoop(t, cfg, spec.Algorithm, shards, 1)
				if diff := firstDiff(want.lines, got.lines); diff != "" {
					t.Fatalf("shards=%d: the stack's decisions diverged from sim.Run:\n%s", shards, diff)
				}
				if diff := firstDiff(want.placed, got.placed); diff != "" {
					t.Fatalf("shards=%d: the stack's placements diverged from sim.Run:\n%s", shards, diff)
				}
				if !reflect.DeepEqual(want.ledger, got.ledger) {
					t.Fatalf("shards=%d ledger diverged:\nsim:   %+v\nstack: %+v", shards, want.ledger, got.ledger)
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
