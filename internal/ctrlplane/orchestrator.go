package ctrlplane

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/reopt"
	"repro/internal/slice"
	"repro/internal/topology"
	"repro/internal/wal"
	"repro/internal/yield"
)

// OrchestratorConfig wires the E2E orchestrator to its domain controllers
// and monitoring backend.
type OrchestratorConfig struct {
	Net       *topology.Network
	Algorithm string // "direct" | "benders" | "kac" | "no-overbooking"

	// QueueDepth is the bounded-intake depth of the admission engine the
	// orchestrator routes decisions through (internal/admission); zero takes
	// the engine default. The engine's one domain runs on one lane, and
	// each tenant may hold the whole queue.
	QueueDepth int

	// Controller base URLs (e.g. "http://127.0.0.1:8181").
	RANAddr, TransportAddr, CloudAddr string

	// Store is the monitoring backend the collector writes into; the
	// admission engine publishes its round vitals into the same store.
	Store *monitor.Store

	// Executor, when set, routes the default domain's round solves to a
	// remote worker pool (an internal/cluster Coordinator). The engine
	// keeps all state and the WAL; only the pure solve call leaves the
	// process, so recovery, determinism pins and the REST surface are
	// unchanged. Nil solves in-process.
	Executor admission.Executor

	// DataDir, when set, makes decisions durable: the orchestrator opens a
	// WAL there (internal/wal), recovers whatever a previous process left
	// behind before serving, logs every epoch's inputs, snapshots every
	// SnapshotEvery epochs, and writes a final snapshot on a clean Close.
	// Empty disables durability entirely (the prior behavior).
	DataDir string
	// SnapshotEvery is the snapshot cadence in epochs; default 16.
	SnapshotEvery int

	// WALFence, when set with DataDir, is consulted by the WAL before any
	// byte reaches the directory (wal.Options.Fence). Wire it to a leader
	// lease Check so a deposed leader cannot write to a log its successor
	// now owns.
	WALFence func() error
}

func (cfg OrchestratorConfig) withDefaults() (OrchestratorConfig, error) {
	if cfg.Net == nil {
		return cfg, fmt.Errorf("ctrlplane: orchestrator needs a topology")
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = "direct"
	}
	if cfg.Store == nil {
		// The closed loop always reads through a store; a deployment
		// without a collector simply leaves it empty (every slice then
		// stays at its conservative full-SLA reservation).
		cfg.Store = monitor.NewStore(0)
	}
	if cfg.DataDir != "" && cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 16
	}
	return cfg, nil
}

// registration is a slice request the engine has not decided yet.
type registration struct {
	name     string
	tmpl     slice.Template
	duration int
	ticket   *admission.Ticket
}

func (r registration) status(state string) SliceStatus {
	return SliceStatus{Name: r.name, Type: r.tmpl.Type.String(), State: state, Remaining: r.duration}
}

// committedStatus is a committed slice's row.
func committedStatus(m *admission.CommittedSlice, state string, remaining int) SliceStatus {
	return SliceStatus{Name: m.Name, Type: m.SLA.Type.String(), State: state, CU: m.CU, Reserved: m.Reserved, Remaining: remaining}
}

// epochRun is what one RunEpoch hands its programRound, and gets back.
type epochRun struct {
	rep  *EpochReport
	pre  []admission.CommittedSlice // committed before the round
	post []admission.CommittedSlice // committed after it, before the advance
}

// Orchestrator is the paper's OVNES: admission control, resource
// reservation, monitoring aggregation and forecasting behind one REST API.
// It is deliberately the only stateful control-plane entity. Admission and
// reservation decisions route through an internal/admission engine: the
// bounded intake backpressures Register, the prefilter fast-rejects
// structurally infeasible requests, and each epoch's AC-RR instance is
// solved on the engine's shard against a warm cross-epoch session.
//
// The epoch itself is the closed loop of internal/reopt: a Controller owns
// the monitoring → forecasting → reoptimization → lifecycle cycle, calling
// back into the orchestrator (OnRound) to program the data plane between
// the warm re-solve and the lifecycle advance. Realized yield settles into
// a shared yield.Ledger, published raw at GET /yield and as its totals
// alongside the engine snapshot at GET /metrics.
type Orchestrator struct {
	cfg      OrchestratorConfig
	paths    [][][]topology.Path
	client   *http.Client
	eng      *admission.Engine
	loop     *reopt.Controller
	ledger   *yield.Ledger
	wal      *wal.Store    // nil when DataDir is unset
	recovery *wal.Report   // nil when nothing was recovered
	replay   time.Duration // how long takeover spent replaying the log ...
	lanes    int           // ... over how many domains' lanes

	// The REST registry is a view of the engine's committed slices plus
	// what the engine does not hold: the requests it has not decided and the
	// rows of the slices that terminated in the last epoch.
	mu      sync.Mutex
	pending []registration // in registration order
	ended   []SliceStatus  // rejected in registration order, then expired
	cur     *epochRun      // set while RunEpoch steps the loop
}

// buildCore constructs the orchestrator shell — engine (domain added, NOT
// started, no executor), closed-loop controller, ledger, path sets — with
// no log: whatever replay feeds it re-describes what is already durable.
// takeover installs the log and the executor and starts the engine.
func buildCore(cfg OrchestratorConfig) (*Orchestrator, error) {
	ledger := yield.NewLedger()
	eng := admission.New(admission.Config{
		QueueDepth: cfg.QueueDepth,
		Store:      cfg.Store,
		Ledger:     ledger,
	})
	if err := eng.AddDomain(admission.DefaultDomain, admission.DomainConfig{
		Net:       cfg.Net,
		Algorithm: cfg.Algorithm,
	}); err != nil {
		return nil, fmt.Errorf("ctrlplane: %w", err)
	}
	// Share the engine's path enumeration: programRound indexes it with the
	// engine's PathIdx values, so no second Yen run can drift from it.
	paths, err := eng.Paths(admission.DefaultDomain)
	if err != nil {
		return nil, err
	}
	o := &Orchestrator{
		cfg:    cfg,
		paths:  paths,
		client: &http.Client{Timeout: 10 * time.Second},
		eng:    eng,
		ledger: ledger,
	}
	loopCfg := reopt.Config{
		Engine:  eng,
		Store:   cfg.Store,
		Ledger:  ledger,
		OnRound: o.programRound,
	}
	if cfg.DataDir != "" {
		// Fires from Step only, so only once takeover has set o.wal: a
		// replica that is still tailing never steps.
		loopCfg.SnapshotEvery, loopCfg.Snapshot = cfg.SnapshotEvery, o.writeSnapshot
	}
	loop, err := reopt.New(loopCfg)
	if err != nil {
		return nil, fmt.Errorf("ctrlplane: %w", err)
	}
	o.loop = loop
	return o, nil
}

// writeSnapshot persists the engine, ledger and given controller state at
// the log's current position (and compacts the log behind it).
func (o *Orchestrator) writeSnapshot(cs reopt.ControllerState) error {
	snap, err := wal.BuildSnapshot(o.eng, []string{admission.DefaultDomain}, []reopt.ControllerState{cs}, o.ledger)
	if err != nil {
		return err
	}
	return o.wal.WriteSnapshot(snap)
}

// takeover is the one way a built core starts serving — a promoted
// standby's, and so a starting leader's too. With a store (st, taken where
// the replayer's tail stopped) it first makes the core the owner of the
// log: install it on engine and controller, and let the replayer truncate
// the previous writer's uncommitted residue and complete a trailing
// half-step, timed from start. The executor arrives last, so no replayed
// round ever waits on a worker. On error the caller still owns st.
func (o *Orchestrator) takeover(st *wal.Store, r *wal.Replayer, exec admission.Executor, start time.Time) error {
	if st != nil {
		if err := o.eng.SetLog(st); err != nil {
			return err
		}
		o.loop.SetLog(st)
		rep, err := r.Finalize(st, nil)
		if err != nil {
			return err
		}
		o.replay, o.lanes = time.Since(start), r.Domains()
		o.wal, o.recovery = st, rep
	}
	if exec != nil {
		if err := o.eng.SetExecutor(admission.DefaultDomain, exec); err != nil {
			return err
		}
	}
	return o.eng.Start()
}

// NewOrchestrator builds the orchestrator; it precomputes the P_{b,c} path
// sets offline exactly as §2.1.2 prescribes, recovers whatever a previous
// process left in DataDir, starts the admission engine, and binds the
// closed-loop controller to it. Call Close to release the engine's workers.
// With a DataDir the orchestrator is a standby of its own log, promoted at
// once: recovery reads the log through the same tail a standby does.
func NewOrchestrator(cfg OrchestratorConfig) (*Orchestrator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.DataDir != "" {
		sb, err := NewStandby(cfg)
		if err != nil {
			return nil, err
		}
		o, err := sb.Promote(cfg.Executor, cfg.WALFence)
		if err != nil {
			sb.Close()
		}
		return o, err
	}
	o, err := buildCore(cfg)
	if err != nil {
		return nil, err
	}
	if err := o.takeover(nil, nil, cfg.Executor, time.Time{}); err != nil {
		return nil, err
	}
	return o, nil
}

// Recovery reports what startup recovered from the data directory; nil
// when durability is disabled.
func (o *Orchestrator) Recovery() *wal.Report { return o.recovery }

// ReplayCost reports how long the takeover spent in log replay — for a
// restarting leader its whole replay, for a promoted standby only what its
// tail had not delivered — and how many domains' lanes the replay ran over.
func (o *Orchestrator) ReplayCost() (elapsed time.Duration, domains int) { return o.replay, o.lanes }

// Close drains and stops the admission engine: queued requests are decided
// (bounded by the context) and the solver workers exit. With durability
// enabled it then writes a final snapshot and closes the WAL, so the next
// open resumes replay-free.
func (o *Orchestrator) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := o.eng.Drain(ctx)
	o.eng.Stop()
	if o.wal != nil {
		serr := o.writeSnapshot(o.loop.ExportState())
		if cerr := o.wal.Close(); serr == nil {
			serr = cerr
		}
		if err == nil {
			err = serr
		}
	}
	return err
}

// Handler exposes the orchestrator's REST surface (SMan-Or northbound).
func (o *Orchestrator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /requests", func(w http.ResponseWriter, r *http.Request) {
		var nsd NSDescriptor
		if err := decodeBody(w, r, &nsd); err != nil {
			httpBodyError(w, err)
			return
		}
		if err := o.Register(nsd.Request); err != nil {
			status := http.StatusConflict
			if errors.Is(err, admission.ErrOverloaded) {
				// Backpressure, not conflict: the tenant should retry later.
				status = http.StatusTooManyRequests
			}
			httpError(w, status, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "pending"})
	})
	mux.HandleFunc("POST /epoch", func(w http.ResponseWriter, r *http.Request) {
		rep, err := o.RunEpoch()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})
	mux.HandleFunc("GET /slices", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, o.Statuses())
	})
	mux.HandleFunc("POST /topology", func(w http.ResponseWriter, r *http.Request) {
		var events []topology.Event
		if err := decodeBody(w, r, &events); err != nil {
			httpBodyError(w, err)
			return
		}
		if err := o.ApplyTopology(events); err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]int{"applied": len(events)})
	})
	mux.HandleFunc("GET /topology", func(w http.ResponseWriter, r *http.Request) {
		events, err := o.eng.TopologyEvents(admission.DefaultDomain)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		if events == nil {
			events = []topology.Event{}
		}
		writeJSON(w, http.StatusOK, events)
	})
	mux.HandleFunc("GET /epoch", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]int{"epoch": o.loop.Epoch()})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, MetricsReport{
			Snapshot: o.eng.Metrics(),
			Yield:    o.ledger.Totals(),
		})
	})
	mux.HandleFunc("GET /yield", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, o.ledger.Snapshot())
	})
	return mux
}

// MetricsReport is the GET /metrics payload: the engine's serving counters
// at the top level (unchanged shape) plus the live yield account's totals
// (yield.Ledger.Totals: no per-slice lines; GET /yield serves those).
type MetricsReport struct {
	admission.Snapshot
	Yield yield.Summary `json:"yield"`
}

// ApplyTopology injects capacity events (outage, degradation, recovery,
// CU churn) into the default domain. Each event sets an element's capacity
// factor relative to the BASE topology, so a later factor-1 event restores
// it exactly; subsequent rounds re-solve against the degraded network while
// committed reservations stay pinned (deficit-relaxed if now infeasible).
// With durability enabled the events are fsynced to the WAL before any
// state changes, so kill-and-replay recovers the degraded capacity too.
func (o *Orchestrator) ApplyTopology(events []topology.Event) error {
	return o.eng.ApplyTopology(admission.DefaultDomain, events)
}

// Yield returns the orchestrator's live revenue account.
func (o *Orchestrator) Yield() yield.Summary { return o.ledger.Snapshot() }

// Register routes a tenant request into the admission engine's bounded
// intake. The slice appears as "pending" until the next epoch's round
// decides it; structurally infeasible requests are fast-rejected by the
// engine's prefilter without ever costing a solve, and an overloaded
// engine sheds with admission.ErrOverloaded. A name that is listed is
// taken: the engine refuses a committed one, the registry a pending one
// and one that terminated in the last epoch.
func (o *Orchestrator) Register(req SliceRequest) error {
	tmpl, err := req.Template()
	if err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if slices.ContainsFunc(o.pending, func(r registration) bool { return r.name == req.Name }) ||
		slices.ContainsFunc(o.ended, func(st SliceStatus) bool { return st.Name == req.Name }) {
		return fmt.Errorf("ctrlplane: slice %q already exists", req.Name)
	}
	if req.DurationEpochs <= 0 {
		return fmt.Errorf("ctrlplane: slice %q needs a positive duration", req.Name)
	}
	m := req.PenaltyFactor
	if m <= 0 {
		m = 1
	}
	sla := slice.SLA{Template: tmpl, Duration: req.DurationEpochs}.WithPenaltyFactor(m)
	ticket, err := o.eng.Submit(admission.Request{
		Tenant: req.Tenant,
		Name:   req.Name,
		SLA:    sla,
	})
	if err != nil {
		return err
	}
	o.pending = append(o.pending, registration{name: req.Name, tmpl: tmpl, duration: req.DurationEpochs, ticket: ticket})
	return nil
}

// Statuses lists every slice the orchestrator knows, in one order whether
// it served from the start or recovered: the engine's committed slices in
// admission order, then the slices that terminated in the last epoch (the
// rejected in registration order, then the expired in admission order),
// then the pending requests in registration order.
func (o *Orchestrator) Statuses() []SliceStatus {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.statusesLocked()
}

func (o *Orchestrator) statusesLocked() []SliceStatus {
	// The default domain exists from buildCore on, the only error case.
	committed, _ := o.eng.CommittedDetail(admission.DefaultDomain)
	out := make([]SliceStatus, 0, len(committed)+len(o.ended)+len(o.pending))
	for i := range committed {
		out = append(out, committedStatus(&committed[i], "active", committed[i].Remaining))
	}
	out = append(out, o.ended...)
	for _, r := range o.pending {
		out = append(out, r.status("pending"))
	}
	return out
}

// RunEpoch executes one decision round by stepping the closed loop: the
// reopt controller settles the ended epoch's yield, aggregates monitoring
// into the forecasters, re-solves AC-RR through the admission engine's
// warm shard (programming the controllers mid-step via programRound), and
// advances slice lifecycles; the orchestrator then lists what terminated
// and tears down whatever expired, in one more southbound round trip.
// A slice that terminated in epoch e is listed until RunEpoch(e+1) returns,
// and its name is free after that. When programming fails the step still
// completes; its report is applied all the same before the error is
// returned, so a retry runs the next epoch rather than settling this one
// twice.
func (o *Orchestrator) RunEpoch() (*EpochReport, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ended = nil

	// The shrink-first order needs the totals in force before the round.
	pre, err := o.eng.CommittedDetail(admission.DefaultDomain)
	if err != nil {
		return nil, err
	}
	// programRound runs under the controller's lock: the epoch is read here.
	run := &epochRun{rep: &EpochReport{Epoch: o.loop.Epoch()}, pre: pre}
	o.cur = run
	step, err := o.loop.Step()
	o.cur = nil
	if step == nil {
		return nil, err
	}
	rep := run.rep

	// Decided requests leave the pending list. The report lists the round's
	// rejections first, in its order; the prefilter's never reached a round.
	rep.Rejected = append(rep.Rejected, step.Round.Rejected...)
	o.pending = slices.DeleteFunc(o.pending, func(r registration) bool {
		out, ok := r.ticket.Outcome()
		if ok && out.FastRejected {
			rep.Rejected = append(rep.Rejected, r.name)
		}
		if ok && !out.Admitted {
			o.ended = append(o.ended, r.status("rejected"))
		}
		return ok
	})
	// What expired left the engine at the advance; its last row is in the
	// round's committed state, and the advance ticked its lifetime to 0.
	rep.Expired = step.Expired
	for i := range run.post {
		if m := &run.post[i]; slices.Contains(rep.Expired, m.Name) {
			o.ended = append(o.ended, committedStatus(m, "expired", m.Remaining-1))
		}
	}
	if len(rep.Expired) > 0 {
		if perr := o.push(&southbound{
			ran:   EpochDoc[RadioConfig]{Remove: rep.Expired},
			tn:    EpochDoc[FlowConfig]{Remove: rep.Expired},
			cloud: EpochDoc[StackConfig]{Remove: rep.Expired},
		}); perr != nil && err == nil {
			err = fmt.Errorf("ctrlplane: teardown of %v: %w", rep.Expired, perr)
		}
	}
	if err != nil {
		return nil, err
	}
	rep.Slices = o.statusesLocked()
	return rep, nil
}

// RunLoop drives RunEpoch on a wall-clock cadence until the context ends —
// the serving deployment's closed-loop lifecycle, where decision epochs
// are real time instead of POST /epoch calls (which keep working and
// simply insert extra epochs). Returns nil when the context ends, the
// first epoch error otherwise.
func (o *Orchestrator) RunLoop(ctx context.Context, every time.Duration) error {
	if every <= 0 {
		return fmt.Errorf("ctrlplane: RunLoop needs a positive period")
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
			if _, err := o.RunEpoch(); err != nil {
				return err
			}
		}
	}
}

// programRound is the reopt controller's OnRound hook, running between the
// epoch's warm re-solve and the lifecycle advance — exactly where the
// pre-closed-loop orchestrator programmed the data plane. It pushes the
// committed reservations southbound as one epoch document per controller,
// slices that shrink listed first so the controllers' admission checks see
// freed capacity before grows arrive, and lists the round's admissions in
// that order. A refusal leaves the engine's round committed; the next
// round re-sends every reservation. Called with o.mu held (RunEpoch → Step
// → here).
func (o *Orchestrator) programRound(round *admission.Round) error {
	run := o.cur
	if run == nil {
		// The report and the pre-round totals are RunEpoch's: stepping the
		// controller any other way is refused.
		return fmt.Errorf("ctrlplane: controller stepped outside RunEpoch")
	}
	var err error
	if run.post, err = o.eng.CommittedDetail(admission.DefaultDomain); err != nil {
		return err
	}
	post, dec, rep := run.post, round.Decision, run.rep
	rep.NetRevenue = dec.Revenue()
	rep.DeficitCost = core.DefaultBigM * (dec.DeficitRadio + dec.DeficitTransport + dec.DeficitCompute)

	type progItem struct {
		m     *admission.CommittedSlice
		fresh bool // admitted by this round
		delta float64
	}
	// round.Names is the committed slices (run.pre) then the batch; post is
	// the same committed slices then the batch's admissions, so both are
	// walked in step with it.
	var prog []progItem
	i, j := 0, 0
	for ti, name := range round.Names {
		old, fresh := 0.0, true
		if i < len(run.pre) && run.pre[i].Name == name {
			old, fresh = totalOf(run.pre[i].Reserved), false
			i++
		}
		if j == len(post) || post[j].Name != name {
			continue // rejected
		}
		m := &post[j]
		j++
		if dec.Accepted[ti] {
			prog = append(prog, progItem{m: m, fresh: fresh, delta: totalOf(m.Reserved) - old})
		}
	}
	if len(prog) == 0 {
		return nil
	}
	sort.Slice(prog, func(i, j int) bool { return prog[i].delta < prog[j].delta })

	// One document per domain over the IFA005-flavoured southbound, every
	// slice at the same index in all three.
	var sb southbound
	for _, pi := range prog {
		m := pi.m
		shares := make([]float64, len(m.Reserved))
		rules := make([]FlowSpec, len(m.Reserved))
		for b, zb := range m.Reserved {
			shares[b] = zb * o.cfg.Net.BSs[b].Eta
			rules[b] = FlowSpec{
				LinkIDs:  o.paths[b][m.CU][m.PathIdx[b]].LinkIDs,
				RateMbps: zb,
			}
		}
		sb.ran.Set = append(sb.ran.Set, RadioConfig{Slice: m.Name, ShareMHz: shares})
		sb.tn.Set = append(sb.tn.Set, FlowConfig{Slice: m.Name, Rules: rules})
		sb.cloud.Set = append(sb.cloud.Set, StackConfig{
			Slice: m.Name, CU: m.CU,
			BaselineCPU: m.SLA.Compute.BaselineCPU,
			CPUPerMbps:  m.SLA.Compute.CPUPerMbps,
			TotalMbps:   totalOf(m.Reserved),
		})
		if pi.fresh {
			rep.Accepted = append(rep.Accepted, m.Name)
		}
	}
	if err := o.push(&sb); err != nil {
		return fmt.Errorf("ctrlplane: programming epoch %d: %w", rep.Epoch, err)
	}
	return nil
}

// totalOf sums a per-BS reservation in BS order.
func totalOf(z []float64) float64 {
	t := 0.0
	for _, v := range z {
		t += v
	}
	return t
}

// southbound is one round trip's programming: an epoch document for each of
// the three domain controllers.
type southbound struct {
	ran   EpochDoc[RadioConfig]
	tn    EpochDoc[FlowConfig]
	cloud EpochDoc[StackConfig]
}

// push posts the three documents concurrently — the domains share no
// data-plane element, so their order against each other decides nothing —
// and returns the first failure in RAN, transport, cloud order.
func (o *Orchestrator) push(sb *southbound) error {
	var errs [3]error
	var wg sync.WaitGroup
	for i, p := range []struct {
		url string
		doc interface{}
	}{
		{o.cfg.RANAddr + "/shares", &sb.ran},
		{o.cfg.TransportAddr + "/flows", &sb.tn},
		{o.cfg.CloudAddr + "/stacks", &sb.cloud},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = call(o.client, http.MethodPost, p.url, p.doc, nil)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
