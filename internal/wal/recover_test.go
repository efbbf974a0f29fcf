package wal

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/monitor"
	"repro/internal/reopt"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/yield"
)

// The kill-and-replay gate. The test plays the durable "world" — tenants
// with their offers, the data plane's seeded traffic generators — while the
// control-plane "process" (engine + controller + monitor store) is
// crashable: a kill Aborts the WAL (dropping its unsynced buffer, exactly
// what a hard stop could lose) and throws the process away, monitor store
// included. Recovery must rebuild a process that continues the run
// BIT-IDENTICALLY to one that was never killed: same per-epoch decision
// fingerprints, same final ledger, same committed detail, same exported
// tracker state.

const recEpochs = 10

// recCISize shrinks an archetype exactly like the reopt equality suite
// does, so the exact solvers stay affordable under -race.
func recCISize(s scenario.Spec) scenario.Spec {
	if s.Tenants > 4 {
		s.Tenants = 4
	}
	s.Epochs = recEpochs
	if s.Arrivals.Kind == scenario.FlashCrowd {
		s.Arrivals.SpikeEpoch = 4
		s.Arrivals.SpikeSize = 2
	}
	return s
}

func recCompile(t testing.TB, spec scenario.Spec, seed int64) sim.Config {
	t.Helper()
	cfg, err := spec.Compile(seed)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SamplesPerEpoch == 0 {
		cfg.SamplesPerEpoch = 8
	}
	return cfg
}

// offer is one tenant request the world keeps alive until it is decided.
type offer struct {
	spec sim.SliceSpec
	sla  slice.SLA
}

// world is everything that survives a control-plane crash: the tenants'
// undecided offers (they re-submit after a kill — their acks never came)
// and the data plane's seeded generators plus the last epoch's emitted
// samples (the monitoring pipeline re-delivers what the dead store lost).
type world struct {
	cfg     sim.Config
	reoffer bool
	offers  []offer
	pending []offer
	gens    map[string][]traffic.Generator
	last    []monitor.Sample
	// events is the scenario's capacity-event stream, epoch-sorted; the
	// world delivers each epoch's slice at the epoch boundary. A recovered
	// process already holds every PAST epoch's events (they replay from the
	// WAL); the boundary delivery happens before the epoch's step, so a
	// kill at the boundary never leaves an event half-delivered.
	events []topology.Event
}

func newWorld(cfg sim.Config, reoffer bool) *world {
	w := &world{cfg: cfg, reoffer: reoffer, gens: map[string][]traffic.Generator{}}
	w.events = append(w.events, cfg.Events...)
	sort.SliceStable(w.events, func(i, j int) bool { return w.events[i].Epoch < w.events[j].Epoch })
	for _, sp := range cfg.Slices {
		w.offers = append(w.offers, offer{
			spec: sp,
			sla: slice.SLA{Template: sp.Template, MeanMbps: sp.MeanMbps, Duration: sp.Duration}.
				WithPenaltyFactor(sp.PenaltyFactor),
		})
	}
	return w
}

// proc is one crashable control-plane process.
type proc struct {
	store  *monitor.Store
	ledger *yield.Ledger
	eng    *admission.Engine
	ctrl   *reopt.Controller
	wal    *Store
	rec    *Report
}

// startProc builds a process. With dir set it opens the WAL there and
// recovers whatever a predecessor left; with dir empty it is the
// uninterrupted reference. snapEvery > 0 arms periodic snapshots.
func startProc(t testing.TB, cfg sim.Config, algorithm, dir string, snapEvery int) *proc {
	t.Helper()
	p := &proc{store: monitor.NewStore(0), ledger: yield.NewLedger()}

	var recovered *Recovered
	if dir != "" {
		var err error
		// Small segments so kills land across rotation boundaries too.
		p.wal, recovered, err = Open(Options{Dir: dir, SegmentBytes: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
	}
	engCfg := admission.Config{QueueDepth: 1024, Ledger: p.ledger}
	if p.wal != nil {
		engCfg.Log = p.wal
	}
	p.eng = admission.New(engCfg)
	if err := p.eng.AddDomain("", admission.DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: algorithm}); err != nil {
		t.Fatal(err)
	}
	loopCfg := reopt.Config{
		Engine: p.eng, Store: p.store, Ledger: p.ledger,
		HWPeriod: cfg.HWPeriod, ReoptEvery: 1,
	}
	if p.wal != nil {
		loopCfg.Log = p.wal
		if snapEvery > 0 {
			loopCfg.SnapshotEvery = snapEvery
			eng, led, ws := p.eng, p.ledger, p.wal
			loopCfg.Snapshot = func(cs reopt.ControllerState) error {
				snap, err := BuildSnapshot(eng, []string{admission.DefaultDomain}, []reopt.ControllerState{cs}, led)
				if err != nil {
					return err
				}
				return ws.WriteSnapshot(snap)
			}
		}
	}
	ctrl, err := reopt.New(loopCfg)
	if err != nil {
		t.Fatal(err)
	}
	p.ctrl = ctrl
	if p.wal != nil {
		rep, err := Recover(p.wal, recovered, Target{Engine: p.eng, Controller: ctrl, Ledger: p.ledger})
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		p.rec = rep
	}
	if err := p.eng.Start(); err != nil {
		t.Fatal(err)
	}
	return p
}

// kill hard-stops the process: the WAL loses its unsynced buffer, the
// monitor store and engine die with the process.
func (p *proc) kill() {
	p.eng.Stop()
	if p.wal != nil {
		p.wal.Abort()
	}
}

func (p *proc) stop() {
	p.eng.Stop()
	if p.wal != nil {
		p.wal.Close()
	}
}

// reconnect replays the world's side of a crash hand-off into a fresh
// process: the monitoring pipeline re-delivers the in-flight epoch's
// samples (the forecaster and settlement reads all target the last epoch).
func (w *world) reconnect(p *proc) {
	for _, sm := range w.last {
		p.store.Add(sm)
	}
}

// runEpoch plays one epoch against the process: submit every undecided
// offer, step the loop, account outcomes, emit the epoch's traffic. The
// returned fingerprint matches the reopt equality suite's format.
func (w *world) runEpoch(t testing.TB, p *proc, epoch int) string {
	t.Helper()
	var fire []topology.Event
	for _, ev := range w.events {
		if ev.Epoch == epoch {
			fire = append(fire, ev)
		}
	}
	if len(fire) > 0 {
		if err := p.eng.ApplyTopology("", fire); err != nil {
			t.Fatalf("epoch %d: apply topology: %v", epoch, err)
		}
	}
	for _, o := range w.offers {
		if o.spec.ArrivalEpoch == epoch {
			w.pending = append(w.pending, o)
		}
	}
	tks := make(map[string]*admission.Ticket, len(w.pending))
	for _, o := range w.pending {
		tk, err := p.eng.Submit(admission.Request{Name: o.spec.Name, SLA: o.sla})
		if err != nil {
			t.Fatalf("epoch %d: submit %s: %v", epoch, o.spec.Name, err)
		}
		tks[o.spec.Name] = tk
	}
	rep, err := p.ctrl.Step()
	if err != nil {
		t.Fatalf("epoch %d: %v", epoch, err)
	}
	line := recFingerprint(epoch, rep)

	var still []offer
	for _, o := range w.pending {
		out, ok := tks[o.spec.Name].Outcome()
		if !ok {
			t.Fatalf("epoch %d: %s undecided after the round", epoch, o.spec.Name)
		}
		if out.Admitted {
			gs := make([]traffic.Generator, w.cfg.Net.NumBS())
			for b := range gs {
				gs[b] = sim.NewGenerator(w.cfg, o.spec, b)
			}
			w.gens[o.spec.Name] = gs
		} else if w.reoffer {
			still = append(still, o)
		}
	}
	w.pending = still

	// Data plane: emit the epoch's traffic (expiring slices still served
	// it), remember it for a possible crash hand-off, then retire expired
	// generators.
	w.last = w.last[:0]
	names := make([]string, 0, len(w.gens))
	for n := range w.gens {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for b, g := range w.gens[name] {
			for theta := 0; theta < w.cfg.SamplesPerEpoch; theta++ {
				sm := monitor.Sample{
					Slice: name, Metric: monitor.LoadMetric, Element: monitor.BSElement(b),
					Epoch: epoch, Theta: theta, Value: g.Sample(epoch, theta),
				}
				p.store.Add(sm)
				w.last = append(w.last, sm)
			}
		}
	}
	for _, name := range rep.Expired {
		delete(w.gens, name)
	}
	return line
}

func recFingerprint(epoch int, rep *reopt.StepReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d exp=%.4f rescaled=%d:", epoch, rep.Round.Decision.Revenue(), rep.Rescaled)
	for i, name := range rep.Round.Names {
		if i < len(rep.Round.Decision.Accepted) && rep.Round.Decision.Accepted[i] {
			fmt.Fprintf(&b, " %s@cu%d%v", name, rep.Round.Decision.CU[i], rep.Round.Decision.PathIdx[i])
		}
	}
	total := 0.0
	for _, e := range rep.Settled {
		total += e.Realized
	}
	fmt.Fprintf(&b, " settled=%.9g/%d", total, len(rep.Settled))
	return b.String()
}

// finalState captures everything recovery promises to reproduce exactly.
type finalState struct {
	ledger    yield.Summary
	committed []admission.CommittedSlice
	ctrl      reopt.ControllerState
}

func capture(t testing.TB, p *proc) finalState {
	t.Helper()
	committed, err := p.eng.CommittedDetail(admission.DefaultDomain)
	if err != nil {
		t.Fatal(err)
	}
	return finalState{
		ledger:    p.ledger.Snapshot(),
		committed: committed,
		ctrl:      p.ctrl.ExportState(),
	}
}

func assertIdentical(t testing.TB, label string, want, got finalState, wantLines, gotLines []string) {
	t.Helper()
	for i := range wantLines {
		if i >= len(gotLines) || wantLines[i] != gotLines[i] {
			g := "<missing>"
			if i < len(gotLines) {
				g = gotLines[i]
			}
			t.Fatalf("%s: decision trace diverged at epoch %d:\n  reference: %s\n  recovered: %s", label, i, wantLines[i], g)
		}
	}
	if !reflect.DeepEqual(want.ledger, got.ledger) {
		t.Fatalf("%s: ledger diverged:\nreference: %+v\nrecovered: %+v", label, want.ledger, got.ledger)
	}
	if !reflect.DeepEqual(want.committed, got.committed) {
		t.Fatalf("%s: committed detail diverged:\nreference: %+v\nrecovered: %+v", label, want.committed, got.committed)
	}
	if !reflect.DeepEqual(want.ctrl, got.ctrl) {
		t.Fatalf("%s: controller state diverged:\nreference: %+v\nrecovered: %+v", label, want.ctrl, got.ctrl)
	}
}

// TestKillAndReplayMatchesUninterrupted is the PR's acceptance gate: on
// the drift archetypes, hard-kill the control plane at randomized epoch
// boundaries — mid-lifecycle, mid-forecast-warmup, before and after
// snapshots — restart from the data directory, and require the recovered
// run's decision trace, yield ledger, committed detail and tracker state
// to equal the never-killed run's bit for bit.
func TestKillAndReplayMatchesUninterrupted(t *testing.T) {
	for _, name := range []string{"diurnal-drift", "flash-drift", "outage", "churn"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := scenario.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec = recCISize(spec)
			cfg := recCompile(t, spec, 42)

			// Uninterrupted reference: same world driver, no WAL, no kills.
			refWorld := newWorld(cfg, spec.ReofferPending)
			ref := startProc(t, cfg, spec.Algorithm, "", 0)
			var refLines []string
			for e := 0; e < recEpochs; e++ {
				refLines = append(refLines, refWorld.runEpoch(t, ref, e))
			}
			refFinal := capture(t, ref)
			ref.stop()

			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 3; trial++ {
				// 1-3 distinct kill epochs per trial, anywhere in the run.
				kills := map[int]bool{}
				for n := 1 + rng.Intn(3); len(kills) < n; {
					kills[1+rng.Intn(recEpochs-1)] = true
				}
				label := fmt.Sprintf("trial %d (kills %v)", trial, sortedKeys(kills))

				dir := t.TempDir()
				w := newWorld(cfg, spec.ReofferPending)
				p := startProc(t, cfg, spec.Algorithm, dir, 3)
				var lines []string
				recoveries := 0
				for e := 0; e < recEpochs; e++ {
					if kills[e] {
						p.kill()
						p = startProc(t, cfg, spec.Algorithm, dir, 3)
						if got := p.ctrl.Epoch(); got != e {
							t.Fatalf("%s: recovered to epoch %d, want %d (report %+v)", label, got, e, p.rec)
						}
						w.reconnect(p)
						recoveries++
					}
					lines = append(lines, w.runEpoch(t, p, e))
				}
				final := capture(t, p)
				p.stop()
				if recoveries == 0 {
					t.Fatalf("%s: no kill actually happened; the trial is vacuous", label)
				}
				assertIdentical(t, label, refFinal, final, refLines, lines)
			}
		})
	}
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// TestCleanShutdownResumesReplayFree pins the graceful path: a final
// snapshot on close makes the next start replay-free (no records applied),
// and the resumed run still matches the uninterrupted reference exactly.
func TestCleanShutdownResumesReplayFree(t *testing.T) {
	spec, err := scenario.ByName("diurnal-drift")
	if err != nil {
		t.Fatal(err)
	}
	spec = recCISize(spec)
	cfg := recCompile(t, spec, 42)

	refWorld := newWorld(cfg, spec.ReofferPending)
	ref := startProc(t, cfg, spec.Algorithm, "", 0)
	var refLines []string
	for e := 0; e < recEpochs; e++ {
		refLines = append(refLines, refWorld.runEpoch(t, ref, e))
	}
	refFinal := capture(t, ref)
	ref.stop()

	dir := t.TempDir()
	w := newWorld(cfg, spec.ReofferPending)
	p := startProc(t, cfg, spec.Algorithm, dir, 0)
	var lines []string
	half := recEpochs / 2
	for e := 0; e < half; e++ {
		lines = append(lines, w.runEpoch(t, p, e))
	}
	// Clean shutdown: final snapshot, then close.
	snap, err := BuildSnapshot(p.eng, []string{admission.DefaultDomain},
		[]reopt.ControllerState{p.ctrl.ExportState()}, p.ledger)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.wal.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	p.stop()

	p = startProc(t, cfg, spec.Algorithm, dir, 0)
	if p.rec.Applied != 0 {
		t.Fatalf("clean restart replayed %d records, want a replay-free resume (report %+v)", p.rec.Applied, p.rec)
	}
	if got := p.ctrl.Epoch(); got != half {
		t.Fatalf("resumed at epoch %d, want %d", got, half)
	}
	w.reconnect(p)
	for e := half; e < recEpochs; e++ {
		lines = append(lines, w.runEpoch(t, p, e))
	}
	final := capture(t, p)
	p.stop()
	assertIdentical(t, "clean shutdown", refFinal, final, refLines, lines)
}

// TestRecoverTruncatesUncommittedStepPrefix pins the hold-back rule: a
// step's settle/observe/forecast records that reached disk without their
// round — possible when a crash lands between a buffer flush and the round
// fsync — are dropped physically, and recovery lands on the last committed
// round as if the interrupted step had never started.
func TestRecoverTruncatesUncommittedStepPrefix(t *testing.T) {
	spec, err := scenario.ByName("diurnal-drift")
	if err != nil {
		t.Fatal(err)
	}
	spec = recCISize(spec)
	cfg := recCompile(t, spec, 42)

	dir := t.TempDir()
	w := newWorld(cfg, spec.ReofferPending)
	p := startProc(t, cfg, spec.Algorithm, dir, 0)
	var lines []string
	for e := 0; e < 4; e++ {
		lines = append(lines, w.runEpoch(t, p, e))
	}
	mid := capture(t, p)

	// Crash mid-step: the next step's prefix reaches disk, its round does
	// not. The records are framed like the live step would frame them.
	if err := p.wal.AppendSettle(admission.DefaultDomain, 3, []yield.Entry{{Slice: "ghost", Epoch: 3, Realized: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := p.wal.AppendObserve(admission.DefaultDomain, 4, []string{"ghost"}, []reopt.ObservedPeak{{Name: "ghost", Peak: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := p.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	lsnBefore := p.wal.LSN()
	p.kill()

	p2 := startProc(t, cfg, spec.Algorithm, dir, 0)
	if p2.rec.HeldBack != 2 {
		t.Fatalf("recovery held back %d records, want the 2 uncommitted ones (report %+v)", p2.rec.HeldBack, p2.rec)
	}
	if got := p2.wal.LSN(); got != lsnBefore-2 {
		t.Fatalf("uncommitted tail not truncated: LSN %d, want %d", got, lsnBefore-2)
	}
	got := capture(t, p2)
	// The ghost entries must not have leaked into the ledger or trackers.
	assertIdentical(t, "uncommitted prefix", mid, got, nil, nil)

	// And the interrupted step re-runs live, continuing the run exactly.
	w.reconnect(p2)
	refWorld := newWorld(cfg, spec.ReofferPending)
	ref := startProc(t, cfg, spec.Algorithm, "", 0)
	var refLines []string
	for e := 0; e < recEpochs; e++ {
		refLines = append(refLines, refWorld.runEpoch(t, ref, e))
	}
	refFinal := capture(t, ref)
	ref.stop()
	for e := 4; e < recEpochs; e++ {
		lines = append(lines, w.runEpoch(t, p2, e))
	}
	final := capture(t, p2)
	p2.stop()
	assertIdentical(t, "post-truncation resume", refFinal, final, refLines, lines)
}

// TestRecoverRecordSequences drives Recover over hand-built logs — the
// shapes a crash can leave and the two malformed shapes replay refuses —
// and pins the Report and where the log ends afterwards. The last case is
// the one place the deleted batch copy of the hold-back rule disagreed
// with the replayer: it accepted an advance between a step's prefix and
// its round; a tailing standby never did, and now nothing does.
func TestRecoverRecordSequences(t *testing.T) {
	const a, b = admission.DefaultDomain, "b"
	round := func(d string, seq int) Record {
		r := *testRecord(seq)
		r.Domain = d
		return r
	}
	advance := func(d string) Record { return Record{Kind: KindAdvance, Domain: d} }
	settle := func(d string) Record {
		return Record{Kind: KindSettle, Domain: d, Entries: []yield.Entry{{Slice: "ghost", Realized: 1}}}
	}
	observe := func(d string, epoch int) Record { return Record{Kind: KindObserve, Domain: d, Epoch: epoch} }
	forecasts := func(d string) Record {
		return Record{Kind: KindForecasts, Domain: d, Forecasts: []admission.ForecastUpdate{{Name: "ghost", LambdaHat: 1, Sigma: 1}}}
	}

	cases := []struct {
		name    string
		log     []Record
		want    Report
		wantLSN uint64
		wantErr string
	}{
		{
			name:    "prefix without its round at the tail",
			log:     []Record{round(a, 0), advance(a), settle(a), observe(a, 1), forecasts(a)},
			want:    Report{Applied: 2, Rounds: 1, HeldBack: 3},
			wantLSN: 2, // the three uncommitted records are physically gone
		},
		{
			name:    "trailing round without its advance",
			log:     []Record{round(a, 0), advance(a), settle(a), observe(a, 1), round(a, 1)},
			want:    Report{Applied: 5, Rounds: 2, CompletedAdvance: []string{a}},
			wantLSN: 6, // the completed advance is re-logged
		},
		{
			name:    "committed record after another domain's uncommitted prefix",
			log:     []Record{forecasts(a), round(b, 0)},
			wantErr: "cannot truncate",
		},
		{
			name:    "advance between a step's prefix and its round",
			log:     []Record{round(a, 0), advance(a), observe(a, 1), advance(a), round(a, 1)},
			wantErr: "advance at LSN 3 over a pending step prefix",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, _ := mustOpen(t, Options{Dir: dir})
			for i := range tc.log {
				if err := w.append(&tc.log[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			s, rec := mustOpen(t, Options{Dir: dir})
			defer s.Close()
			if len(rec.Records) != len(tc.log) {
				t.Fatalf("reopen found %d records, wrote %d", len(rec.Records), len(tc.log))
			}
			eng := admission.New(admission.Config{Log: s})
			for _, d := range []string{a, b} {
				if err := eng.AddDomain(d, admission.DomainConfig{Net: topology.Testbed(), Algorithm: "direct"}); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := Recover(s, rec, Target{Engine: eng, Ledger: yield.NewLedger()})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Recover = %v, want an error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*rep, tc.want) {
				t.Fatalf("report %+v, want %+v", *rep, tc.want)
			}
			if got := s.LSN(); got != tc.wantLSN {
				t.Fatalf("log ends at LSN %d after recovery, want %d", got, tc.wantLSN)
			}
		})
	}
}
