package reopt_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/reopt"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/topology"
	"repro/internal/wal"
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

// trace is one closed loop's fingerprint. lines and the end's ledger are
// what sim.Run also produces: per epoch, a line with the round's expected
// revenue, the reservations it rescaled, its admissions on their CUs and
// paths, the yield settled for the epoch before, and the admissions'
// measured peaks. epochs and the rest of end are the stack's own state,
// which only another stack run can be held to.
type trace struct {
	lines  []string
	epochs []epochState
	end    endState
}

// epochState is what one step left behind beyond its trace line: the
// round's rejections, the yield entries it settled, and the controller's
// exported state — forecasters and the reservations in force.
type epochState struct {
	Rejected []string
	Settled  []yield.Entry
	State    reopt.ControllerState
}

// endState is a process's durable state: what recovery must rebuild.
type endState struct {
	Ledger    yield.Summary
	Committed []admission.CommittedSlice
	Ctrl      reopt.ControllerState
}

func (tr *trace) String() string { return strings.Join(tr.lines, "\n") }

// record appends one epoch's line. admitted holds the round's admissions
// in instance order (Name, CU, PathIdx and Peak set); settled holds the
// realized yield booked for the epoch before, in booking order. Floats
// print exactly, so equal traces are equal bit for bit.
func (tr *trace) record(epoch int, exp float64, rescaled int, admitted []sim.TenantEpoch, settled []float64) {
	var line strings.Builder
	fmt.Fprintf(&line, "epoch %d exp=%v rescaled=%d:", epoch, exp, rescaled)
	for _, te := range admitted {
		fmt.Fprintf(&line, " %s@cu%d%v", te.Name, te.CU, te.PathIdx)
	}
	total := 0.0
	for _, v := range settled {
		total += v
	}
	fmt.Fprintf(&line, " settled=%v/%d", total, len(settled))
	for _, te := range admitted {
		fmt.Fprintf(&line, " %s.peak=%v", te.Name, te.Peak)
	}
	tr.lines = append(tr.lines, line.String())
}

// simTrace derives the stack's trace from a sim.Run of the same compiled
// scenario. A slice active in epochs e−1 and e rescaled when its total
// reservation moved by more than reopt.RescaleTol. The stack settles epoch
// e−1 at step e and books each round's expected revenue as it decides, so
// line e carries epoch e−1's realized revenue, and the last epoch's
// entries never reach the ledger.
func simTrace(res *sim.Result) *trace {
	cfg := res.Config
	slas := map[string]slice.SLA{}
	for _, sp := range cfg.Slices {
		slas[sp.Name] = slice.SLA{Template: sp.Template, MeanMbps: sp.MeanMbps, Duration: sp.Duration}.
			WithPenaltyFactor(sp.PenaltyFactor)
	}
	total := func(z []float64) float64 {
		s := 0.0
		for _, v := range z {
			s += v
		}
		return s
	}
	ledger := yield.NewLedger()
	tr := &trace{}
	var prev []sim.TenantEpoch // epoch e−1's active slices, in instance order
	for e, es := range res.Epochs {
		prevTotal := map[string]float64{}
		var settled []float64
		for _, te := range prev {
			prevTotal[te.Name] = total(te.Reserved)
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
			if was, ok := prevTotal[te.Name]; ok && math.Abs(total(te.Reserved)-was) > reopt.RescaleTol {
				rescaled++
			}
			active = append(active, te)
		}
		tr.record(e, es.ExpectedRevenue, rescaled, active, settled)
		prev = active
	}
	tr.end.Ledger = ledger.Snapshot()
	return tr
}

// setup says how one control-plane process is built.
type setup struct {
	algorithm string
	// shards is the engine's lane count; 0 means 1. reoptEvery is the
	// controller's: 0 refreshes forecasts every step, −1 is the static
	// baseline.
	shards, reoptEvery int
	// cluster routes the domain's solves through a coordinator with
	// workers loopback workers; with none, every round is declined back
	// to the engine's own solver.
	cluster bool
	workers int
	// dir, when set, holds the WAL: the process recovers what a
	// predecessor left there, logs every step and snapshots after every
	// snapEvery-th (never when 0).
	dir       string
	snapEvery int
}

// stack is one crashable control-plane process: engine, controller,
// monitor store and ledger, with its WAL and its cluster when the setup
// asks for them. A kill takes all of it, the monitor store included; the
// reopt.World that plays the tenants and the data plane outlives it.
type stack struct {
	store   *monitor.Store
	ledger  *yield.Ledger
	eng     *admission.Engine
	ctrl    *reopt.Controller
	wal     *wal.Store
	rec     *wal.Report
	coord   *cluster.Coordinator
	workers map[string]func()
}

// build wires a process without starting it: its WAL is open, nothing is
// recovered yet, and no round has run.
func build(t testing.TB, cfg sim.Config, s setup) (*stack, *wal.Recovered) {
	t.Helper()
	p := &stack{store: monitor.NewStore(0), ledger: yield.NewLedger()}
	engCfg := admission.Config{Shards: s.shards, Ledger: p.ledger}
	loopCfg := reopt.Config{Store: p.store, Ledger: p.ledger, HWPeriod: cfg.HWPeriod, ReoptEvery: s.reoptEvery}
	var recovered *wal.Recovered
	if s.dir != "" {
		var err error
		// Small segments so kills land across rotation boundaries too.
		if p.wal, recovered, err = wal.Open(wal.Options{Dir: s.dir, SegmentBytes: 8 << 10}); err != nil {
			t.Fatal(err)
		}
		engCfg.Log, loopCfg.Log = p.wal, p.wal
		if s.snapEvery > 0 {
			loopCfg.SnapshotEvery = s.snapEvery
			loopCfg.Snapshot = p.snapshot
		}
	}
	p.eng = admission.New(engCfg)
	t.Cleanup(p.kill)
	if err := p.eng.AddDomain("", admission.DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: s.algorithm}); err != nil {
		t.Fatal(err)
	}
	loopCfg.Engine = p.eng
	var err error
	if p.ctrl, err = reopt.New(loopCfg); err != nil {
		t.Fatal(err)
	}
	return p, recovered
}

// newStack builds a process and brings it up the way a leader takes
// over: recover from the WAL, then attach the cluster (so no replayed
// round waits on a worker), then start.
func newStack(t testing.TB, cfg sim.Config, s setup) *stack {
	t.Helper()
	p, recovered := build(t, cfg, s)
	if p.wal != nil {
		var err error
		if p.rec, err = wal.Recover(p.wal, recovered, wal.Target{Engine: p.eng, Controller: p.ctrl, Ledger: p.ledger}); err != nil {
			t.Fatalf("recovery: %v", err)
		}
	}
	if s.cluster {
		p.coord = cluster.NewCoordinator(cluster.CoordinatorOptions{})
		if err := p.coord.RegisterDomain("", admission.DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: s.algorithm}); err != nil {
			t.Fatal(err)
		}
		p.workers = map[string]func(){}
		for i := 0; i < s.workers; i++ {
			id := fmt.Sprintf("w%d", i)
			p.workers[id] = cluster.StartLoopbackWorker(p.coord, id, nil)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := p.coord.WaitMembers(ctx, s.workers); err != nil {
			t.Fatal(err)
		}
		if err := p.eng.SetExecutor(admission.DefaultDomain, p.coord); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.eng.Start(); err != nil {
		t.Fatal(err)
	}
	return p
}

// snapshot persists the process's durable state at a step boundary.
func (p *stack) snapshot(cs reopt.ControllerState) error {
	snap, err := wal.BuildSnapshot(p.eng, []string{admission.DefaultDomain}, []reopt.ControllerState{cs}, p.ledger)
	if err != nil {
		return err
	}
	return p.wal.WriteSnapshot(snap)
}

// killOwner stops whichever worker owns the domain, so the rebalance
// genuinely moves warm state; the stop returns once the coordinator has
// seen it go.
func (p *stack) killOwner(t testing.TB) *stack {
	t.Helper()
	owner, ok := p.coord.OwnerOf(admission.DefaultDomain)
	if !ok || p.workers[owner] == nil {
		t.Fatalf("no live owner for the default domain (owner %q)", owner)
	}
	p.workers[owner]()
	delete(p.workers, owner)
	return p
}

// kill hard-stops the process: the WAL loses its unsynced buffer, and the
// engine, the monitor store and the coordinator with its workers die with
// it. stop shuts it down cleanly. Both are safe to repeat.
func (p *stack) kill() { p.shutdown((*wal.Store).Abort) }
func (p *stack) stop() { p.shutdown(func(s *wal.Store) { s.Close() }) }

func (p *stack) shutdown(closeWAL func(*wal.Store)) {
	p.eng.Stop()
	if p.wal != nil {
		closeWAL(p.wal)
	}
	for id, stop := range p.workers {
		stop()
		delete(p.workers, id)
	}
	if p.coord != nil {
		p.coord.Close()
	}
}

// play runs the controller's next epoch through the world and appends it
// to tr.
func (p *stack) play(t testing.TB, w *reopt.World, tr *trace) {
	t.Helper()
	pl, err := w.Play(p.ctrl)
	if err != nil {
		t.Fatal(err)
	}
	dec := pl.Round.Decision
	var admitted []sim.TenantEpoch
	for i, name := range pl.Round.Names {
		if !dec.Accepted[i] {
			continue
		}
		peak := make([]float64, len(dec.PathIdx[i])) // one per BS
		for b := range peak {
			for _, sm := range p.store.ElementEpochSamples(name, monitor.LoadMetric, monitor.BSElement(b), pl.Epoch) {
				peak[b] = max(peak[b], sm.Value)
			}
		}
		admitted = append(admitted, sim.TenantEpoch{Name: name, CU: dec.CU[i], PathIdx: dec.PathIdx[i], Peak: peak})
	}
	var settled []float64
	for _, e := range pl.Settled {
		settled = append(settled, e.Realized)
	}
	tr.record(pl.Epoch, dec.Revenue(), pl.Rescaled, admitted, settled)
	tr.epochs = append(tr.epochs, epochState{Rejected: pl.Round.Rejected, Settled: pl.Settled, State: p.ctrl.ExportState()})
}

// state captures the process's durable state.
func (p *stack) state(t testing.TB) endState {
	t.Helper()
	committed, err := p.eng.CommittedDetail(admission.DefaultDomain)
	if err != nil {
		t.Fatal(err)
	}
	return endState{Ledger: p.ledger.Snapshot(), Committed: committed, Ctrl: p.ctrl.ExportState()}
}

// A hook perturbs the process before an epoch plays. It returns the
// process that plays on: p itself, or a successor that took p's place.
type hook func(p *stack) *stack

// run plays the whole scenario through a process built by s, calling
// hooks[e] before epoch e. A successor must resume at epoch e; the last
// epoch's samples are then copied from p's store into its own, as the
// monitoring pipeline hands them to a restarted process.
func run(t testing.TB, cfg sim.Config, s setup, hooks map[int]hook) *trace {
	t.Helper()
	w, p, tr := reopt.NewWorld(cfg), newStack(t, cfg, s), &trace{}
	for e := 0; e < cfg.Epochs; e++ {
		if h := hooks[e]; h != nil {
			if q := h(p); q != p {
				if got := q.ctrl.Epoch(); got != e {
					t.Fatalf("successor resumed at epoch %d, want %d (recovery %+v)", got, e, q.rec)
				}
				reopt.CopyEpoch(q.store, p.store, cfg, e-1)
				p = q
			}
		}
		p.play(t, w, tr)
	}
	tr.end = p.state(t)
	p.stop()
	return tr
}

// crashes hard-kills the process before each epoch in kills and recovers
// a successor from the WAL in s.dir.
func crashes(t testing.TB, cfg sim.Config, s setup, kills []int) map[int]hook {
	hooks := map[int]hook{}
	for _, k := range kills {
		hooks[k] = func(p *stack) *stack {
			p.kill()
			return newStack(t, cfg, s)
		}
	}
	return hooks
}

// check holds tr to the spec (sim.Run's trace, bit for bit) and, when ref
// is set, its stack state to ref's: per-epoch rejections, settled entries
// and controller state, and the final ledger, committed detail and
// controller state.
func (tr *trace) check(t testing.TB, spec, ref *trace) {
	t.Helper()
	if len(tr.lines) != len(spec.lines) {
		t.Fatalf("the stack played %d epochs, sim.Run %d", len(tr.lines), len(spec.lines))
	}
	for e := range spec.lines {
		if spec.lines[e] != tr.lines[e] {
			t.Fatalf("epoch %d diverged from sim.Run:\n  sim:   %s\n  stack: %s", e, spec.lines[e], tr.lines[e])
		}
	}
	if !reflect.DeepEqual(spec.end.Ledger, tr.end.Ledger) {
		t.Fatalf("ledger diverged from sim.Run:\nsim:   %+v\nstack: %+v", spec.end.Ledger, tr.end.Ledger)
	}
	if ref == nil {
		return
	}
	for e := range ref.epochs {
		if !reflect.DeepEqual(ref.epochs[e], tr.epochs[e]) {
			t.Fatalf("epoch %d's state diverged from the 1-shard row:\n  want: %+v\n  got:  %+v", e, ref.epochs[e], tr.epochs[e])
		}
	}
	if !reflect.DeepEqual(ref.end, tr.end) {
		t.Fatalf("final state diverged from the 1-shard row:\n  want: %+v\n  got:  %+v", ref.end, tr.end)
	}
}

// A row is one perturbation of the stack. It runs on the named archetypes
// (every one when archs is nil), with s preset to the archetype's
// algorithm, and returns the trace it played.
type row struct {
	name  string
	archs []string
	run   func(t *testing.T, cfg sim.Config, s setup) *trace
}

// crashSchedules draws the crash rows' kill epochs: trials schedules of
// 1–3 distinct epochs in [1, loopEpochs), from one seeded source, so a
// failing row names a schedule that replays exactly.
func crashSchedules(seed int64, trials int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, trials)
	for i := range out {
		for n := 1 + rng.Intn(3); len(out[i]) < n; {
			if k := 1 + rng.Intn(loopEpochs-1); !slices.Contains(out[i], k) {
				out[i] = append(out[i], k)
			}
		}
		slices.Sort(out[i])
	}
	return out
}

// epochList prints kill epochs for a row name: [2 5 8] as 2,5,8.
func epochList(ks []int) string {
	return strings.ReplaceAll(strings.Trim(fmt.Sprint(ks), "[]"), " ", ",")
}

// rows is the refinement table.
func rows() []row {
	workerArchs := []string{"diurnal-drift", "flash-crowd", "outage"}
	crashArchs := []string{"diurnal-drift", "flash-drift", "outage", "churn"}
	var rs []row
	for _, n := range []int{2, 5} {
		rs = append(rs, row{name: fmt.Sprintf("shards=%d", n), run: func(t *testing.T, cfg sim.Config, s setup) *trace {
			s.shards = n
			return run(t, cfg, s, nil)
		}})
	}
	// At two or more workers the owner dies before the midpoint, which
	// moves the domain onto a survivor with committed tenants and
	// accumulated topology events in play.
	for _, n := range []int{0, 1, 2, 4} {
		rs = append(rs, row{name: fmt.Sprintf("workers=%d", n), archs: workerArchs, run: func(t *testing.T, cfg sim.Config, s setup) *trace {
			s.cluster, s.workers = true, n
			if n < 2 {
				return run(t, cfg, s, nil)
			}
			return run(t, cfg, s, map[int]hook{cfg.Epochs / 2: func(p *stack) *stack { return p.killOwner(t) }})
		}})
	}
	// Hard kills at seeded epoch boundaries — mid-lifecycle,
	// mid-forecast-warmup, before and after snapshots.
	schedules := crashSchedules(7, 3)
	for _, kills := range schedules {
		rs = append(rs, row{name: "crash@" + epochList(kills), archs: crashArchs, run: func(t *testing.T, cfg sim.Config, s setup) *trace {
			s.dir, s.snapEvery = t.TempDir(), 3
			return run(t, cfg, s, crashes(t, cfg, s, kills))
		}})
	}
	// Every family at once: lanes, the wire, a worker death, and a crash
	// (the last schedule's) whose successor brings up a fresh cluster.
	kills := schedules[len(schedules)-1]
	rs = append(rs, row{name: "shards=2,workers=2,crash@" + epochList(kills), archs: []string{"outage"},
		run: func(t *testing.T, cfg sim.Config, s setup) *trace {
			s.shards, s.cluster, s.workers = 2, true, 2
			s.dir, s.snapEvery = t.TempDir(), 3
			hooks := crashes(t, cfg, s, kills)
			hooks[cfg.Epochs/2] = func(p *stack) *stack { return p.killOwner(t) }
			return run(t, cfg, s, hooks)
		}})
	only := []string{"diurnal-drift"}
	return append(rs,
		row{name: "mid-step", archs: only, run: midStepCrash},
		row{name: "clean-restart", archs: only, run: cleanRestart},
		row{name: "standby", archs: only, run: standbyPromotion})
}

// TestStackDecidesLikeSimulator is the refinement table: the online stack
// against its one spec, sim.Run. On every scenario archetype the full
// closed loop — engine lanes, warm sessions, concurrent submitters,
// re-offers by resubmission, capacity events through ApplyTopology, the
// reopt controller — plays the compiled scenario at 1 shard and must
// equal the trace derived from one sim.Run bit for bit: expected revenue,
// rescalings, admissions on their CUs and paths, settled yield, measured
// peaks (a dark BS's included, where both record zero load) and the
// ledger. Each row of rows then plays it again under one perturbation and
// must equal both that spec and the 1-shard run's own state.
func TestStackDecidesLikeSimulator(t *testing.T) {
	t.Parallel()
	table := rows()
	for _, arch := range scenario.Archetypes() {
		t.Run(arch.Name, func(t *testing.T) {
			t.Parallel()
			spec, cfg := ciScenario(t, arch.Name)
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := simTrace(res)
			if want.end.Ledger.Entries == 0 {
				t.Fatal("sim.Run settled nothing; the row is vacuous")
			}
			base := setup{algorithm: spec.Algorithm}
			ref := run(t, cfg, base, nil)
			ref.check(t, want, nil)
			for _, r := range table {
				if r.archs != nil && !slices.Contains(r.archs, arch.Name) {
					continue
				}
				t.Run(r.name, func(t *testing.T) {
					t.Parallel()
					r.run(t, cfg, base).check(t, want, ref)
				})
			}
		})
	}
}

// midStepCrash kills the process mid-step: the next step's settle/observe
// prefix reaches disk, its round does not — possible when a crash lands
// between a buffer flush and the round fsync. Recovery must drop the
// prefix physically and land on the last committed round as if the
// interrupted step had never started; the step then re-runs live.
func midStepCrash(t *testing.T, cfg sim.Config, s setup) *trace {
	s.dir = t.TempDir()
	return run(t, cfg, s, map[int]hook{4: func(p *stack) *stack {
		mid := p.state(t)
		appendGhostPrefix(t, p.wal, 4)
		p.kill()
		// Recover the way newStack's wal.Recover does, keeping the replayer
		// to read where it left the log.
		q, recovered := build(t, cfg, s)
		lsn := recovered.Records[len(recovered.Records)-1].LSN + 1 // the dead process's log end
		replayer, err := wal.NewReplayer(wal.Target{Engine: q.eng, Controller: q.ctrl, Ledger: q.ledger})
		if err != nil {
			t.Fatal(err)
		}
		if err := replayer.Bootstrap(recovered.Snapshot); err != nil {
			t.Fatal(err)
		}
		if q.rec, err = replayer.Finalize(q.wal, recovered.Records); err != nil {
			t.Fatalf("recovery: %v", err)
		}
		if q.rec.HeldBack != 2 {
			t.Fatalf("recovery held back %d records, want the 2 uncommitted ones (report %+v)", q.rec.HeldBack, q.rec)
		}
		if got := replayer.SeenLSN(); got != lsn-2 {
			t.Fatalf("uncommitted tail not truncated: LSN %d, want %d", got, lsn-2)
		}
		// The ghost entries must not have leaked into the ledger or trackers.
		if got := q.state(t); !reflect.DeepEqual(mid, got) {
			t.Fatalf("state after dropping the uncommitted prefix:\n  want: %+v\n  got:  %+v", mid, got)
		}
		if err := q.eng.Start(); err != nil {
			t.Fatal(err)
		}
		return q
	}})
}

// appendGhostPrefix writes and syncs the settle/observe prefix of step
// epoch, framed as the live step would frame it, without its round.
func appendGhostPrefix(t testing.TB, ws *wal.Store, epoch int) {
	t.Helper()
	if err := ws.AppendSettle(admission.DefaultDomain, epoch-1, []yield.Entry{{Slice: "ghost", Epoch: epoch - 1, Realized: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := ws.AppendObserve(admission.DefaultDomain, epoch, []string{"ghost"}, []reopt.ObservedPeak{{Name: "ghost", Peak: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := ws.Sync(); err != nil {
		t.Fatal(err)
	}
}

// cleanRestart shuts down gracefully at the midpoint: a final snapshot on
// close makes the next start replay-free (no records applied).
func cleanRestart(t *testing.T, cfg sim.Config, s setup) *trace {
	s.dir = t.TempDir()
	return run(t, cfg, s, map[int]hook{cfg.Epochs / 2: func(p *stack) *stack {
		if err := p.snapshot(p.ctrl.ExportState()); err != nil {
			t.Fatal(err)
		}
		p.stop()
		q := newStack(t, cfg, s)
		if q.rec.Applied != 0 {
			t.Fatalf("clean restart replayed %d records, want a replay-free resume (report %+v)", q.rec.Applied, q.rec)
		}
		return q
	}})
}

// standbyPromotion is replication at the storage layer. The leader logs
// with small segments and a snapshot every 2 epochs, so rotation and
// compaction both happen under the reader. A standby joins late — after
// the segments below the first snapshot were compacted away — bootstraps
// from the tailer's snapshot and follows the live log. The leader dies
// mid-step; the standby takes the log over the way a leader does (install
// it, finalize against the reopened store, truncating the dead leader's
// uncommitted prefix, start) and finishes the run.
func standbyPromotion(t *testing.T, cfg sim.Config, s setup) *trace {
	leader := s
	leader.dir, leader.snapEvery = t.TempDir(), 2
	var (
		tail     *wal.Tailer
		sb       *stack
		replayer *wal.Replayer
	)
	drain := func() {
		for {
			recs, err := tail.Poll()
			if err != nil {
				t.Fatalf("tail poll: %v", err)
			}
			if len(recs) == 0 {
				return
			}
			if err := replayer.Ingest(recs...); err != nil {
				t.Fatalf("ingest from LSN %d: %v", recs[0].LSN, err)
			}
		}
	}
	const join = 4
	kill := cfg.Epochs - 2
	hooks := map[int]hook{join: func(p *stack) *stack {
		var err error
		if tail, err = wal.OpenTailer(leader.dir); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tail.Close() })
		if tail.Snapshot() == nil {
			t.Fatal("tailer found no snapshot to bootstrap from; the late-join path is untested")
		}
		sb, _ = build(t, cfg, s)
		if replayer, err = wal.NewReplayer(wal.Target{Engine: sb.eng, Controller: sb.ctrl, Ledger: sb.ledger}); err != nil {
			t.Fatal(err)
		}
		if err := replayer.Bootstrap(tail.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return p
	}}
	for e := join + 1; e < kill; e++ {
		hooks[e] = func(p *stack) *stack { drain(); return p }
	}
	hooks[kill] = func(p *stack) *stack {
		drain()
		if _, err := os.Stat(leader.dir + "/wal-0000000000000000.seg"); !os.IsNotExist(err) {
			t.Fatalf("base segment still present (stat: %v); the run never compacted under the tailer", err)
		}
		appendGhostPrefix(t, p.wal, kill)
		p.kill()
		drain()
		tail.Close()
		ws, recovered, err := wal.Open(wal.Options{Dir: leader.dir, SegmentBytes: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		end := recovered.Records[len(recovered.Records)-1].LSN + 1 // the dead leader's log end
		if got := replayer.SeenLSN(); got != end {
			t.Fatalf("the replayer tailed to LSN %d of %d: the dead leader's uncommitted step prefix never reached it; the hold-back path is untested", got, end)
		}
		lsn := end - 2 // before the two-record prefix
		sb.wal = ws
		if err := sb.eng.SetLog(ws); err != nil {
			t.Fatal(err)
		}
		sb.ctrl.SetLog(ws)
		if sb.rec, err = replayer.Finalize(ws, recovered.Records); err != nil {
			t.Fatalf("finalize: %v", err)
		}
		if sb.rec.HeldBack != 2 || replayer.SeenLSN() != lsn {
			t.Fatalf("finalize held back %d records and left the log at LSN %d, want the 2 uncommitted ones truncated to LSN %d (report %+v)",
				sb.rec.HeldBack, replayer.SeenLSN(), lsn, sb.rec)
		}
		if err := sb.eng.Start(); err != nil {
			t.Fatal(err)
		}
		return sb
	}
	return run(t, cfg, leader, hooks)
}

// TestClosedLoopBeatsStaticOnDrift pins the paper's economics end to end:
// on the drift archetype, forecast-driven reoptimization must realize
// strictly more net yield than the same engine with frozen full-SLA
// forecasts — the headroom it frees admits the re-offered overflow — and
// must do so by rescaling committed reservations online.
func TestClosedLoopBeatsStaticOnDrift(t *testing.T) {
	t.Parallel()
	spec, cfg := ciScenario(t, "diurnal-drift")
	closed := run(t, cfg, setup{algorithm: spec.Algorithm, shards: 2}, nil)
	static := run(t, cfg, setup{algorithm: spec.Algorithm, shards: 2, reoptEvery: -1}, nil)

	if !(closed.end.Ledger.Realized > static.end.Ledger.Realized) {
		t.Fatalf("closed-loop realized yield %.6g does not beat static %.6g\nclosed:\n%s\nstatic:\n%s",
			closed.end.Ledger.Realized, static.end.Ledger.Realized, closed, static)
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
	t.Parallel()
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
	lt := run(t, cfg, setup{algorithm: spec.Algorithm, shards: 2}, nil)
	settledShort := 0
	for _, st := range lt.end.Ledger.PerSlice {
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
		t.Fatalf("no short-lived slice was admitted and settled; ledger: %+v", lt.end.Ledger.PerSlice)
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
	ctrl, err := reopt.New(reopt.Config{Engine: eng, Store: store})
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

// observeLog is a StepLog that keeps each step's observed peaks.
type observeLog map[int][]reopt.ObservedPeak

func (observeLog) AppendSettle(string, int, []yield.Entry) error { return nil }

func (l observeLog) AppendObserve(_ string, epoch int, _ []string, peaks []reopt.ObservedPeak) error {
	l[epoch] = slices.Clone(peaks)
	return nil
}

// TestObserveFallbackReads drives each read observe makes itself instead of
// reusing the peak settle folded: a slice settle did not read (admitted
// since), a first step after RestoreState whose in-force snapshot served an
// older epoch than the one just ended, and an in-force entry over fewer BSs
// than the slice now has. Before epoch k the controller is replaced by one
// restored, on the same engine and store, from its own state perturbed that
// way for one slice m, chosen so that a reused peak would be wrong: its
// epoch-(k−2) peak and its bs0 peak of epoch k−1 both differ from its
// epoch-(k−1) peak. Every step's observed peaks must still be sim.Run's, bit
// for bit, one for each slice active in both the ended epoch and the next.
func TestObserveFallbackReads(t *testing.T) {
	t.Parallel()
	spec, cfg := ciScenario(t, "diurnal-drift")
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	active := func(e int, name string) *sim.TenantEpoch {
		for i, te := range res.Epochs[e].Tenants {
			if te.Active && te.Name == name {
				return &res.Epochs[e].Tenants[i]
			}
		}
		return nil
	}
	k, m := 0, ""
	for e := 2; e < cfg.Epochs && m == ""; e++ {
		for _, te := range res.Epochs[e-1].Tenants {
			old := active(e-2, te.Name)
			if te.Active && active(e, te.Name) != nil && old != nil &&
				slices.Max(old.Peak) != slices.Max(te.Peak) && te.Peak[0] != slices.Max(te.Peak) {
				k, m = e, te.Name
				break
			}
		}
	}
	if m == "" {
		t.Fatal("no slice whose reused peak would differ; the test is vacuous")
	}

	for _, c := range []struct {
		name    string
		perturb func(prev *reopt.InForceState)
	}{
		{"admitted-since", func(prev *reopt.InForceState) {
			prev.Members = slices.DeleteFunc(prev.Members, func(cs admission.CommittedSlice) bool { return cs.Name == m })
		}},
		{"restored-gap", func(prev *reopt.InForceState) { prev.Epoch-- }},
		{"bs-count", func(prev *reopt.InForceState) {
			for i := range prev.Members {
				if prev.Members[i].Name == m {
					prev.Members[i].Reserved = prev.Members[i].Reserved[:1]
				}
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := admission.New(admission.Config{})
			if err := eng.AddDomain("", admission.DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: spec.Algorithm}); err != nil {
				t.Fatal(err)
			}
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}
			defer eng.Stop()
			log := observeLog{}
			loopCfg := reopt.Config{Engine: eng, Store: monitor.NewStore(0), HWPeriod: cfg.HWPeriod, Log: log}
			ctrl, err := reopt.New(loopCfg)
			if err != nil {
				t.Fatal(err)
			}
			w := reopt.NewWorld(cfg)
			for e := 0; e < cfg.Epochs; e++ {
				if e == k {
					st := ctrl.ExportState()
					c.perturb(st.Prev)
					if ctrl, err = reopt.New(loopCfg); err != nil {
						t.Fatal(err)
					}
					if err := ctrl.RestoreState(st); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := w.Play(ctrl); err != nil {
					t.Fatal(err)
				}
			}
			for e := 1; e < cfg.Epochs; e++ {
				want := 0
				for _, te := range res.Epochs[e-1].Tenants {
					if te.Active && active(e, te.Name) != nil {
						want++
					}
				}
				if got := log[e]; len(got) != want {
					t.Fatalf("step %d observed %d peaks %v, want one for each of the %d slices active in epochs %d and %d", e, len(got), got, want, e-1, e)
				}
				for _, p := range log[e] {
					te := active(e-1, p.Name)
					if te == nil || math.Float64bits(p.Peak) != math.Float64bits(slices.Max(te.Peak)) {
						t.Fatalf("step %d observed %s at %v; sim.Run measured %+v in epoch %d", e, p.Name, p.Peak, te, e-1)
					}
				}
			}
		})
	}
}
