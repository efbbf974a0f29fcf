package ctrlplane

import (
	"context"
	"errors"
	"fmt"
	"net/http"
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

// orchSlice is the orchestrator's lifecycle state for one slice. (The
// per-slice forecast trackers live in the reopt controller, which owns the
// monitoring → forecasting half of the epoch.)
type orchSlice struct {
	tmpl      slice.Template
	state     string // "pending" | "active" | "rejected" | "expired"
	cu        int
	reserved  []float64
	remaining int
	ticket    *admission.Ticket // pending decision handle
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

	mu     sync.Mutex
	epoch  int
	slices map[string]*orchSlice
	order  []string // insertion order, for deterministic decisions
	curRep *EpochReport
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
	// Share the engine's path enumeration: program() must index paths with
	// the PathIdx values the engine's decisions produced, so using the very
	// same slice removes both the duplicate Yen run and any drift hazard.
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
		slices: map[string]*orchSlice{},
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
// log: install it on engine and controller, let the replayer truncate the
// previous writer's uncommitted residue and complete a trailing half-step,
// then rebuild the REST registry. The replay is timed from start. The
// executor arrives last, so no replayed round ever waits on a worker. On
// error the caller still owns st.
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
		o.wal, o.recovery, o.epoch = st, rep, o.loop.Epoch()
		if err := o.adoptCommitted(); err != nil {
			return err
		}
	}
	if exec != nil {
		if err := o.eng.SetExecutor(admission.DefaultDomain, exec); err != nil {
			return err
		}
	}
	return o.eng.Start()
}

// adoptCommitted rebuilds the REST registry from the engine's recovered
// committed state. The registry of terminated slices (rejected, expired)
// is serving history, not decision state, and is deliberately not
// durable — a serving orchestrator forgets it after one epoch too
// (forgetTerminated). The data plane self-heals on the first epoch:
// programRound pushes every accepted slice's reservation southbound each
// round.
func (o *Orchestrator) adoptCommitted() error {
	committed, err := o.eng.CommittedDetail(admission.DefaultDomain)
	if err != nil {
		return err
	}
	for _, m := range committed {
		o.slices[m.Name] = &orchSlice{
			tmpl:      m.SLA.Template,
			state:     "active",
			cu:        m.CU,
			reserved:  append([]float64(nil), m.Reserved...),
			remaining: m.Remaining,
		}
		o.order = append(o.order, m.Name)
	}
	return nil
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
		o.mu.Lock()
		e := o.epoch
		o.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]int{"epoch": e})
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
// engine sheds with admission.ErrOverloaded.
func (o *Orchestrator) Register(req SliceRequest) error {
	tmpl, err := req.Template()
	if err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.slices[req.Name]; dup {
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
	o.slices[req.Name] = &orchSlice{
		tmpl:      tmpl,
		state:     "pending",
		remaining: req.DurationEpochs,
		ticket:    ticket,
	}
	o.order = append(o.order, req.Name)
	return nil
}

// Statuses lists all known slices in registration order.
func (o *Orchestrator) Statuses() []SliceStatus {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.statusesLocked()
}

// RunEpoch executes one decision round by stepping the closed loop: the
// reopt controller settles the ended epoch's yield, aggregates monitoring
// into the forecasters, re-solves AC-RR through the admission engine's
// warm shard (programming the controllers mid-step via programRound), and
// advances slice lifecycles; the orchestrator then reconciles its REST
// view and tears down whatever expired, in one more southbound round trip.
// When programming fails the step still completes; its report is applied
// all the same before the error is returned, so a retry runs the next
// epoch rather than settling this one twice.
func (o *Orchestrator) RunEpoch() (*EpochReport, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.forgetTerminated()

	rep := &EpochReport{Epoch: o.epoch}
	o.curRep = rep
	step, err := o.loop.Step()
	o.curRep = nil
	if step == nil {
		return nil, err
	}
	o.epoch++

	// Requests the prefilter fast-rejected never reached the round; their
	// tickets are already resolved.
	for _, name := range o.order {
		s := o.slices[name]
		if s.state != "pending" || s.ticket == nil {
			continue
		}
		if out, ok := s.ticket.Outcome(); ok && out.FastRejected {
			s.state = "rejected"
			rep.Rejected = append(rep.Rejected, name)
		}
	}

	// Lifecycle: the loop already ticked the engine's clocks; mirror them
	// and tear expired slices out of every domain.
	for _, name := range o.order {
		s := o.slices[name]
		if s.state == "active" {
			s.remaining--
		}
	}
	for _, name := range step.Expired {
		s := o.slices[name]
		if s == nil || s.state != "active" {
			if err == nil {
				err = fmt.Errorf("ctrlplane: engine expired unknown or inactive slice %q", name)
			}
			continue
		}
		s.state = "expired"
		rep.Expired = append(rep.Expired, name)
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

// forgetTerminated drops every rejected or expired slice from the registry.
// RunEpoch calls it on entry, so a slice that terminated in epoch e is in
// that epoch's report and in GET /slices until RunEpoch(e+1) returns (both
// wait on o.mu), and its name is free again after that. What remains is
// what adoptCommitted rebuilds after a restart or promotion plus the
// pending requests, so the registry — and the cost of POST /epoch and GET
// /slices — is bounded by what is live, not by the age of the process.
func (o *Orchestrator) forgetTerminated() {
	kept := o.order[:0]
	for _, name := range o.order {
		if st := o.slices[name].state; st == "rejected" || st == "expired" {
			delete(o.slices, name)
			continue
		}
		kept = append(kept, name)
	}
	o.order = kept
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
// pre-closed-loop orchestrator programmed the data plane. It marks fresh
// solver rejections and pushes accepted reservations southbound as one
// epoch document per controller, slices that shrink listed first so the
// controllers' admission checks see freed capacity before grows arrive.
// The registry commits (pending → active, new reservations) even when a
// controller refuses, as the engine committed the round: the next round
// re-sends every reservation. Called with o.mu held (RunEpoch → Step → here).
func (o *Orchestrator) programRound(round *admission.Round) error {
	rep := o.curRep
	if rep == nil {
		// The hook mutates o.slices, which is safe only under the o.mu
		// that RunEpoch holds. The orchestrator's epoch entry points are
		// RunEpoch and RunLoop; stepping its controller any other way is
		// refused rather than racing the REST handlers.
		return fmt.Errorf("ctrlplane: controller stepped outside RunEpoch")
	}
	dec := round.Decision
	rep.NetRevenue = dec.Revenue()
	rep.DeficitCost = core.DefaultBigM * (dec.DeficitRadio + dec.DeficitTransport + dec.DeficitCompute)

	type progItem struct {
		name  string
		ti    int
		delta float64
	}
	var prog []progItem
	for ti, name := range round.Names {
		s := o.slices[name]
		if s == nil {
			return fmt.Errorf("ctrlplane: engine decided unknown slice %q", name)
		}
		if !dec.Accepted[ti] {
			if s.state == "pending" {
				s.state = "rejected"
				rep.Rejected = append(rep.Rejected, name)
			}
			continue
		}
		newTotal := 0.0
		for _, z := range dec.Z[ti] {
			newTotal += z
		}
		oldTotal := 0.0
		for _, z := range s.reserved {
			oldTotal += z
		}
		prog = append(prog, progItem{name: name, ti: ti, delta: newTotal - oldTotal})
	}
	if len(prog) == 0 {
		return nil
	}
	sort.Slice(prog, func(i, j int) bool { return prog[i].delta < prog[j].delta })

	// One document per domain over the IFA005-flavoured southbound, every
	// slice at the same index in all three.
	var sb southbound
	for _, pi := range prog {
		s, cu, z := o.slices[pi.name], dec.CU[pi.ti], dec.Z[pi.ti]
		shares := make([]float64, len(z))
		rules := make([]FlowSpec, len(z))
		total := 0.0
		for b, zb := range z {
			shares[b] = zb * o.cfg.Net.BSs[b].Eta
			rules[b] = FlowSpec{
				LinkIDs:  o.paths[b][cu][dec.PathIdx[pi.ti][b]].LinkIDs,
				RateMbps: zb,
			}
			total += zb
		}
		sb.ran.Set = append(sb.ran.Set, RadioConfig{Slice: pi.name, ShareMHz: shares})
		sb.tn.Set = append(sb.tn.Set, FlowConfig{Slice: pi.name, Rules: rules})
		sb.cloud.Set = append(sb.cloud.Set, StackConfig{
			Slice: pi.name, CU: cu,
			BaselineCPU: s.tmpl.Compute.BaselineCPU,
			CPUPerMbps:  s.tmpl.Compute.CPUPerMbps,
			TotalMbps:   total,
		})
	}
	err := o.push(&sb)
	for _, pi := range prog {
		s := o.slices[pi.name]
		if s.state == "pending" {
			s.state = "active"
			s.cu = dec.CU[pi.ti]
			rep.Accepted = append(rep.Accepted, pi.name)
		}
		s.reserved = append([]float64(nil), dec.Z[pi.ti]...)
	}
	if err != nil {
		return fmt.Errorf("ctrlplane: programming epoch %d: %w", o.epoch, err)
	}
	return nil
}

func (o *Orchestrator) statusesLocked() []SliceStatus {
	out := make([]SliceStatus, 0, len(o.order))
	for _, name := range o.order {
		s := o.slices[name]
		out = append(out, SliceStatus{
			Name: name, Type: s.tmpl.Type.String(), State: s.state,
			CU: s.cu, Reserved: append([]float64(nil), s.reserved...),
			Remaining: s.remaining,
		})
	}
	return out
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
