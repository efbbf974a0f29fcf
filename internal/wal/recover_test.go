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
	"repro/internal/topology"
	"repro/internal/yield"
)

// The kill-and-replay gate. A reopt.World plays what survives a crash —
// tenants with their offers, the data plane's seeded traffic — while the
// control-plane "process" (engine + controller + monitor store) is
// crashable: a kill Aborts the WAL (dropping its unsynced buffer, exactly
// what a hard stop could lose) and throws the process away, monitor store
// included. Recovery must rebuild a process that continues the run
// BIT-IDENTICALLY to one that was never killed: same per-epoch decision
// fingerprints, same final ledger, same committed detail, same exported
// tracker state.

const recEpochs = 10

// recScenario compiles a named archetype shrunk exactly like the reopt
// equality suite shrinks it, so the exact solvers stay affordable under
// -race.
func recScenario(t testing.TB, name string) (scenario.Spec, sim.Config) {
	t.Helper()
	s, err := scenario.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s.Tenants, s.Epochs = min(s.Tenants, 4), recEpochs
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

// reference is the uninterrupted run every recovery is held to: the same
// world, no WAL, no kills.
func reference(t testing.TB, cfg sim.Config, algorithm string) ([]string, finalState) {
	t.Helper()
	w, p := reopt.NewWorld(cfg), startProc(t, cfg, algorithm, "", 0)
	defer p.stop()
	var lines []string
	for p.ctrl.Epoch() < cfg.Epochs {
		lines = append(lines, play(t, w, p))
	}
	return lines, capture(t, p)
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

// play runs the controller's next epoch through the world and returns its
// fingerprint, in the reopt equality suite's format.
func play(t testing.TB, w *reopt.World, p *proc) string {
	t.Helper()
	rep, err := w.Play(p.ctrl)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d exp=%.4f rescaled=%d:", rep.Epoch, rep.Round.Decision.Revenue(), rep.Rescaled)
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
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, cfg := recScenario(t, name)
			refLines, refFinal := reference(t, cfg, spec.Algorithm)

			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 3; trial++ {
				// 1-3 distinct kill epochs per trial, anywhere in the run.
				kills := map[int]bool{}
				for n := 1 + rng.Intn(3); len(kills) < n; {
					kills[1+rng.Intn(recEpochs-1)] = true
				}
				label := fmt.Sprintf("trial %d (kills %v)", trial, sortedKeys(kills))

				dir := t.TempDir()
				w := reopt.NewWorld(cfg)
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
						w.Redeliver(p.ctrl)
						recoveries++
					}
					lines = append(lines, play(t, w, p))
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
	spec, cfg := recScenario(t, "diurnal-drift")
	refLines, refFinal := reference(t, cfg, spec.Algorithm)

	dir := t.TempDir()
	w := reopt.NewWorld(cfg)
	p := startProc(t, cfg, spec.Algorithm, dir, 0)
	var lines []string
	half := recEpochs / 2
	for e := 0; e < half; e++ {
		lines = append(lines, play(t, w, p))
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
	w.Redeliver(p.ctrl)
	for e := half; e < recEpochs; e++ {
		lines = append(lines, play(t, w, p))
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
	spec, cfg := recScenario(t, "diurnal-drift")

	dir := t.TempDir()
	w := reopt.NewWorld(cfg)
	p := startProc(t, cfg, spec.Algorithm, dir, 0)
	var lines []string
	for e := 0; e < 4; e++ {
		lines = append(lines, play(t, w, p))
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
	w.Redeliver(p2.ctrl)
	refLines, refFinal := reference(t, cfg, spec.Algorithm)
	for e := 4; e < recEpochs; e++ {
		lines = append(lines, play(t, w, p2))
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
