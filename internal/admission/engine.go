package admission

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/slice"
	"repro/internal/topology"
)

// Engine is the online admission service. Construct with New, add domains
// with AddDomain, then Start. Safe for concurrent use.
type Engine struct {
	cfg Config

	mu      sync.Mutex
	state   engineState
	domains map[string]*domain
	shards  []shard
	queued  int // accepted but undecided requests, all domains
	met     metrics
	drained chan struct{} // while a Drain waits: closed when idleLocked

	// metricsMu guards latScratch, the buffer Metrics sorts the latency
	// ring in. Taken before mu, never inside it.
	metricsMu  sync.Mutex
	latScratch []time.Duration

	badReplies atomic.Uint64 // Snapshot.BadReplies; every domain adds to it

	wg sync.WaitGroup // lane holders (inline callers, lane workers)
}

type engineState int

const (
	stateNew engineState = iota
	stateRunning
	stateDraining
	stateStopped
)

// shard is one serial lane (DESIGN.md §5): a domain's rounds all run on its
// one shard, one at a time, in cut order — on the DecideRound caller that found
// the lane idle, else on the lane's worker. Guarded by Engine.mu.
type shard struct {
	busy    bool        // held by an inline caller or a worker
	queue   []*roundJob // cut, waiting for the lane; non-empty only while busy
	domains []*domain   // the shard's domains in registration order
}

// roundJob is one admission round cut from a domain's batch.
type roundJob struct {
	d     *domain
	batch []pending
	done  chan *Round // non-nil when a DecideRound caller waits on a queued job
}

// pending is one queued request.
type pending struct {
	req       Request
	ticket    *Ticket
	submitted time.Time
}

// member is one committed (admitted, unexpired) slice of a domain.
type member struct {
	name, tenant string
	sla          slice.SLA
	lambdaHat    float64
	sigma        float64
	remaining    int
	cu           int
	reserved     []float64
	pathIdx      []int
}

// domain is one operator domain: its solver state lives on exactly one
// shard; the batch buffer is guarded by Engine.mu, the solver state by dmu.
// No path holds Engine.mu and a dmu together, nor two dmus.
type domain struct {
	name  string
	cfg   DomainConfig
	shard *shard
	// solver is the domain's in-process Executor: path sets, warm solve
	// function and the live network. Rounds solve through it unless
	// cfg.Executor takes them remote; replay, and every round the executor
	// declines with ErrNoWorker, always do.
	solver     *LocalSolver
	filter     prefilter
	badReplies *atomic.Uint64 // the engine's; decide counts unusable replies

	// Guarded by Engine.mu.
	batch []pending
	names map[string]bool // queued + committed names (duplicate guard)

	// Guarded by dmu; in steady state only the owning shard takes it.
	dmu       sync.Mutex
	committed []*member
	byName    map[string]*member
	rounds    uint64
	// topoEvents is every ApplyTopology event in arrival order; each round
	// hands the whole list to its Executor, which solves against cfg.Net
	// with the list folded in.
	topoEvents []topology.Event
}

// New builds an engine; AddDomain then Start before submitting.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:     cfg,
		domains: map[string]*domain{},
		shards:  make([]shard, cfg.Shards),
		met:     newMetrics(),
	}
}

// AddDomain installs an operator domain. Domains may be added before or
// after Start; shards are assigned round-robin in registration order, so
// the domain→shard map is deterministic for a fixed AddDomain sequence and
// perfectly balanced at any domain count.
func (e *Engine) AddDomain(name string, dc DomainConfig) error {
	if name == "" {
		name = DefaultDomain
	}
	dc, err := dc.withDefaults()
	if err != nil {
		return err
	}
	solver, err := NewLocalSolver(dc)
	if err != nil {
		return err
	}
	d := &domain{
		name:       name,
		cfg:        dc,
		solver:     solver,
		filter:     newPrefilter(dc, solver.Paths()),
		badReplies: &e.badReplies,
		names:      map[string]bool{},
		byName:     map[string]*member{},
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == stateStopped {
		return ErrStopped
	}
	if _, dup := e.domains[name]; dup {
		return fmt.Errorf("admission: domain %q already exists", name)
	}
	d.shard = &e.shards[len(e.domains)%len(e.shards)] // domains are never removed
	d.shard.domains = append(d.shard.domains, d)
	e.domains[name] = d
	return nil
}

// SetExecutor installs (or clears) a domain's remote-solve executor after
// AddDomain — the promote-to-active seam: a standby replays its whole life
// with no executor (recovery must not depend on workers having rejoined),
// then gains one at promotion, before Start. Safe between rounds too: the
// executor is read under the domain lock.
func (e *Engine) SetExecutor(domainName string, exec Executor) error {
	d, err := e.domain(domainName)
	if err != nil {
		return err
	}
	d.dmu.Lock()
	d.cfg.Executor = exec
	d.dmu.Unlock()
	return nil
}

// SetLog installs the engine's durability hook after New — the seam a
// standby is promoted through: it replays the leader's log with no log of
// its own (nothing to re-describe), then gains the opened store before
// Start. Only an engine that has not started takes a log: rounds are cut
// under mu after Start, which orders them after this write.
func (e *Engine) SetLog(log RoundLog) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != stateNew {
		return fmt.Errorf("admission: SetLog on a started engine")
	}
	e.cfg.Log = log
	return nil
}

// Start opens intake.
func (e *Engine) Start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != stateNew {
		return fmt.Errorf("admission: engine already started")
	}
	e.state = stateRunning
	return nil
}

// Submit offers one request. It returns a Ticket whose outcome resolves
// when a round decides the request (immediately for prefilter fast
// rejections), or an intake error: ErrOverloaded when the engine sheds,
// ErrDuplicate, ErrUnknownDomain, or ErrStopped.
func (e *Engine) Submit(req Request) (*Ticket, error) {
	if req.Domain == "" {
		req.Domain = DefaultDomain
	}
	if req.Name == "" {
		return nil, fmt.Errorf("admission: request needs a name")
	}
	now := time.Now()

	e.mu.Lock()
	if e.state != stateRunning {
		e.mu.Unlock()
		return nil, ErrStopped
	}
	d := e.domains[req.Domain]
	e.mu.Unlock()
	if d == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDomain, req.Domain)
	}
	// The prefilter reads only immutable domain data, so its O(CU·BS·k)
	// path scan runs outside the engine lock — intake stays concurrent
	// across submitters even on large topologies.
	infeasible := d.filter.reject(req)

	e.mu.Lock()
	if e.state != stateRunning {
		e.mu.Unlock()
		return nil, ErrStopped
	}
	if d.names[req.Name] {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, req.Name)
	}
	e.met.submitted++
	if infeasible != "" {
		// Structurally infeasible: decided without touching the queue, a
		// batch, or any LP. The name is not reserved — a corrected
		// resubmission is welcome.
		e.met.fastRejected++
		e.mu.Unlock()
		t := newTicket()
		t.resolve(Outcome{Name: req.Name, FastRejected: true, Reason: infeasible})
		return t, nil
	}
	if e.queued >= e.cfg.QueueDepth {
		e.met.shed++
		e.mu.Unlock()
		return nil, ErrOverloaded
	}
	t := newTicket()
	e.queued++
	d.names[req.Name] = true
	d.batch = append(d.batch, pending{req: req, ticket: t, submitted: now})
	full := e.cfg.MaxBatch > 0 && len(d.batch) >= e.cfg.MaxBatch
	if full || e.cfg.FlushEvery > 0 && !d.shard.busy {
		// Never run here: a submitter must not pay for a solve. Online, a
		// busy lane cuts this batch itself when its round ends (next).
		e.enqueueLocked(&roundJob{d: d, batch: d.batch})
		d.batch = nil
	}
	e.mu.Unlock()
	return t, nil
}

// enqueueLocked queues job on its held lane, or starts the lane's worker
// with it. Caller holds mu.
func (e *Engine) enqueueLocked(job *roundJob) {
	sh := job.d.shard
	if sh.busy {
		sh.queue = append(sh.queue, job)
		return
	}
	sh.busy = true
	e.wg.Add(1)
	go e.runLane(sh, job)
}

// cutLocked cuts every non-empty batch of the shard's domains onto its lane,
// in registration order. Caller holds mu.
func (e *Engine) cutLocked(sh *shard) {
	for _, d := range sh.domains {
		if len(d.batch) > 0 {
			e.enqueueLocked(&roundJob{d: d, batch: d.batch})
			d.batch = nil
		}
	}
}

// next pops the lane's oldest queued round; with none, it frees the lane — the
// one place a lane goes idle, so the one place a waiting Drain is woken.
// Online, it first cuts what accumulated while the lane was held.
func (e *Engine) next(sh *shard) *roundJob {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.FlushEvery > 0 {
		e.cutLocked(sh)
	}
	if len(sh.queue) == 0 {
		sh.busy = false
		if e.drained != nil && e.idleLocked() {
			close(e.drained)
			e.drained = nil
		}
		return nil
	}
	job := sh.queue[0]
	sh.queue[0] = nil
	sh.queue = sh.queue[1:]
	return job
}

// runLane is a lane's worker: job, then the rounds queued behind it. It moves
// the lane on before answering a waiting caller, who may come straight back.
func (e *Engine) runLane(sh *shard, job *roundJob) {
	defer e.wg.Done()
	for job != nil {
		r := e.execRound(job)
		done := job.done
		job = e.next(sh)
		if done != nil {
			done <- r
		}
	}
}

// DecideRound synchronously runs one admission round for the domain — the
// ctrlplane epoch entry point: the current batch (possibly empty; committed
// reservations still re-track the latest forecasts) is decided right here if
// the domain's shard is idle, else queued in cut order, and the report returned.
func (e *Engine) DecideRound(domainName string) (*Round, error) {
	if domainName == "" {
		domainName = DefaultDomain
	}
	e.mu.Lock()
	if e.state != stateRunning && e.state != stateDraining {
		e.mu.Unlock()
		return nil, ErrStopped
	}
	d := e.domains[domainName]
	if d == nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownDomain, domainName)
	}
	job := &roundJob{d: d, batch: d.batch}
	d.batch = nil
	sh := d.shard
	if sh.busy {
		job.done = make(chan *Round, 1)
		sh.queue = append(sh.queue, job)
		e.mu.Unlock()
		r := <-job.done
		return r, r.Err
	}
	sh.busy = true
	e.wg.Add(1)
	e.mu.Unlock()
	r := e.execRound(job)
	// Rounds queued meanwhile go to a worker: the caller came for one.
	if queued := e.next(sh); queued != nil {
		e.wg.Add(1)
		go e.runLane(sh, queued)
	}
	e.wg.Done()
	return r, r.Err
}

// ForecastUpdate is one slice's fresh forecast view for UpdateForecasts.
type ForecastUpdate struct {
	Name      string
	LambdaHat float64
	Sigma     float64
}

// UpdateForecasts installs committed slices' current forecast views (λ̂, σ̂),
// the input that lets the next round drift costs/RHS only and re-enter the
// warm session instead of rebuilding it. The batch takes one lock — the
// closed-loop controller's per-epoch path, where every committed slice of
// the domain refreshes at once. Either all updates apply or none do
// (an unknown name fails the batch before any view is written).
func (e *Engine) UpdateForecasts(domainName string, ups []ForecastUpdate) error {
	d, err := e.domain(domainName)
	if err != nil {
		return err
	}
	d.dmu.Lock()
	defer d.dmu.Unlock()
	for _, u := range ups {
		if d.byName[u.Name] == nil {
			return fmt.Errorf("admission: no committed slice %q in domain %q", u.Name, d.name)
		}
	}
	if e.cfg.Log != nil && len(ups) > 0 {
		// Buffered append (no fsync): the record rides the next round's
		// group commit. Appending under dmu keeps the log's per-domain
		// order identical to the order the state mutations apply in.
		if err := e.cfg.Log.AppendForecasts(d.name, ups); err != nil {
			return fmt.Errorf("admission: wal append forecasts: %w", err)
		}
	}
	for _, u := range ups {
		m := d.byName[u.Name]
		m.lambdaHat = u.LambdaHat
		m.sigma = u.Sigma
	}
	return nil
}

// CommittedSlice is one committed slice's full engine-side state, the view
// the closed-loop controller scores yield against and refreshes forecasts
// for. Reserved and PathIdx are copies; mutating them changes nothing.
type CommittedSlice struct {
	Name   string
	Tenant string
	SLA    slice.SLA
	// LambdaHat and Sigma are the forecast view the last round solved with.
	LambdaHat float64
	Sigma     float64
	// Remaining is the lifetime left in epochs; CU the pinned placement.
	Remaining int
	CU        int
	// Reserved is the per-BS reservation z (Mb/s) from the latest round;
	// PathIdx the per-BS path choice into Paths(domain)[bs][CU].
	Reserved []float64
	PathIdx  []int
}

// CommittedDetail lists the domain's committed slices in admission order
// with their SLAs, forecast views and live reservations — the ledger hook:
// everything needed to assess realized yield against what is reserved.
func (e *Engine) CommittedDetail(domainName string) ([]CommittedSlice, error) {
	d, err := e.domain(domainName)
	if err != nil {
		return nil, err
	}
	d.dmu.Lock()
	defer d.dmu.Unlock()
	return d.committedLocked(), nil
}

// committedLocked copies the committed slices out in admission order. The
// reservations and paths are cut from one backing array each, every copy
// capped so that an append to it cannot reach its neighbour: three
// allocations per listing, not two per slice. Caller holds dmu.
func (d *domain) committedLocked() []CommittedSlice {
	nz, np := 0, 0
	for _, m := range d.committed {
		nz, np = nz+len(m.reserved), np+len(m.pathIdx)
	}
	zs, ps := make([]float64, 0, nz), make([]int, 0, np)
	out := make([]CommittedSlice, len(d.committed))
	for i, m := range d.committed {
		z, p := len(zs), len(ps)
		zs, ps = append(zs, m.reserved...), append(ps, m.pathIdx...)
		out[i] = CommittedSlice{
			Name: m.name, Tenant: m.tenant, SLA: m.sla,
			LambdaHat: m.lambdaHat, Sigma: m.sigma,
			Remaining: m.remaining, CU: m.cu,
			Reserved: zs[z:len(zs):len(zs)],
			PathIdx:  ps[p:len(ps):len(ps)],
		}
	}
	return out
}

// Advance ticks the domain's epoch clock: committed lifetimes decrement and
// expired slices leave (their names become reusable). Returns the expired
// names in admission order.
func (e *Engine) Advance(domainName string) ([]string, error) {
	d, err := e.domain(domainName)
	if err != nil {
		return nil, err
	}
	d.dmu.Lock()
	if e.cfg.Log != nil {
		// Buffered like forecast records; durable with the next round's
		// fsync (or a snapshot/close sync). A lost tail advance is redone
		// deterministically by recovery's step completion.
		if err := e.cfg.Log.AppendAdvance(d.name); err != nil {
			d.dmu.Unlock()
			return nil, fmt.Errorf("admission: wal append advance: %w", err)
		}
	}
	var expired []string
	keep := d.committed[:0]
	for _, m := range d.committed {
		m.remaining--
		if m.remaining <= 0 {
			expired = append(expired, m.name)
			delete(d.byName, m.name)
		} else {
			keep = append(keep, m)
		}
	}
	for i := len(keep); i < len(d.committed); i++ {
		d.committed[i] = nil
	}
	d.committed = keep
	d.dmu.Unlock()

	if len(expired) > 0 {
		e.mu.Lock()
		for _, n := range expired {
			delete(d.names, n)
		}
		e.mu.Unlock()
	}
	return expired, nil
}

// ApplyTopology folds epoch-boundary capacity events (BS outage/recovery,
// degradation, operator join/leave) into the domain's live network. Events
// accumulate in arrival order on top of the base network the domain was
// added with; the next round solves against the new capacities and — the
// pointer having changed — rebuilds its solver cold, the safe path for a
// shape change. Structure never changes (events scale capacities only), so
// the precomputed path sets and the prefilter stay valid; the prefilter
// keeps screening against published capacity, which is advisory anyway —
// the solver is authoritative. The events are logged and fsynced before
// the state mutates, so kill-and-replay reproduces the same capacity
// trajectory bit for bit.
func (e *Engine) ApplyTopology(domainName string, events []topology.Event) error {
	d, err := e.domain(domainName)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return nil
	}
	d.dmu.Lock()
	defer d.dmu.Unlock()
	merged := make([]topology.Event, 0, len(d.topoEvents)+len(events))
	merged = append(merged, d.topoEvents...)
	merged = append(merged, events...)
	// Validates the events and derives the live network once, here, outside
	// any round.
	if err := d.solver.SetTopology(merged); err != nil {
		return fmt.Errorf("admission: %w", err)
	}
	if e.cfg.Log != nil {
		// Durable before visible, like a round: a topology change alters
		// every subsequent decision, so it must survive a crash that any
		// later acked round survives.
		if lerr := e.cfg.Log.AppendTopology(d.name, events); lerr != nil {
			return fmt.Errorf("admission: wal append topology: %w", lerr)
		}
		if lerr := e.cfg.Log.SyncRound(); lerr != nil {
			return fmt.Errorf("admission: wal sync topology: %w", lerr)
		}
	}
	d.topoEvents = merged
	return nil
}

// TopologyEvents returns the domain's accumulated capacity events in the
// order they were applied (a copy).
func (e *Engine) TopologyEvents(domainName string) ([]topology.Event, error) {
	d, err := e.domain(domainName)
	if err != nil {
		return nil, err
	}
	d.dmu.Lock()
	defer d.dmu.Unlock()
	return append([]topology.Event(nil), d.topoEvents...), nil
}

// Paths returns the domain's precomputed k-shortest path sets — the same
// P_{b,c} enumeration the rounds solve against, shared so callers (the
// ctrlplane programming path) need not recompute it. Read-only.
func (e *Engine) Paths(domainName string) ([][][]topology.Path, error) {
	d, err := e.domain(domainName)
	if err != nil {
		return nil, err
	}
	return d.solver.Paths(), nil
}

func (e *Engine) domain(name string) (*domain, error) {
	if name == "" {
		name = DefaultDomain
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	d := e.domains[name]
	if d == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDomain, name)
	}
	return d, nil
}

// Drain stops intake, cuts every batch into a round, and waits until every
// queued request is decided and its ticket resolved (or ctx ends). Committed
// state stays intact; the engine still serves DecideRound/Advance until Stop.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	if e.state == stateStopped {
		e.mu.Unlock()
		return nil
	}
	if e.state == stateNew {
		e.mu.Unlock()
		return fmt.Errorf("admission: drain before start")
	}
	e.state = stateDraining
	for i := range e.shards {
		e.cutLocked(&e.shards[i])
	}
	if e.idleLocked() {
		e.mu.Unlock()
		return nil
	}
	if e.drained == nil {
		e.drained = make(chan struct{})
	}
	drained := e.drained
	e.mu.Unlock()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-drained:
		return nil
	}
}

// idleLocked reports whether every request is decided and every lane free: a
// held lane may still owe its tickets. Caller holds mu.
func (e *Engine) idleLocked() bool {
	for i := range e.shards {
		if e.shards[i].busy {
			return false
		}
	}
	return e.queued == 0
}

// Stop terminates the engine. Undecided requests fail with ErrStopped
// (call Drain first to decide them); rounds already cut — running
// inline, on a lane worker, or queued — finish first.
func (e *Engine) Stop() {
	e.mu.Lock()
	if e.state == stateStopped {
		e.mu.Unlock()
		return
	}
	e.state = stateStopped
	for _, d := range e.domains {
		for _, p := range d.batch {
			delete(d.names, p.req.Name)
			e.queued--
			e.met.shed++
			p.ticket.fail(ErrStopped)
		}
		d.batch = nil
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// execRound runs one live round: assemble → logRound → decide on the domain's
// executor → book, then intake accounting, the monitor sample and the tickets.
// ReplayRound composes the same stages minus the log. Caller holds the lane.
func (e *Engine) execRound(job *roundJob) *Round {
	d := job.d
	start := time.Now()
	d.dmu.Lock()
	r, specs := d.assemble(job.batch)
	// A round the log refused owns no seq: decide, which claims it, never runs.
	err := e.logRound(d.name, r.Seq, job.batch)
	var outcomes []Outcome
	if err == nil {
		outcomes, err = d.decide(r, specs, job.batch, d.cfg.Executor)
	}
	d.dmu.Unlock()

	roundMs := float64(time.Since(start)) / float64(time.Millisecond)
	e.book(r, err)

	e.mu.Lock()
	for bi, p := range job.batch {
		e.queued--
		switch {
		case r.Err != nil:
			e.met.failed++
			delete(d.names, p.req.Name)
		case outcomes[bi].Admitted:
			e.met.admitted++
		default:
			e.met.rejected++
			delete(d.names, p.req.Name) // rejected names may be re-offered
		}
		e.met.observeLatency(time.Since(p.submitted))
	}
	e.met.rounds++
	e.met.batchSum += uint64(len(job.batch))
	e.mu.Unlock()

	e.publishRound(d.name, r.Seq, roundMs)

	for bi, p := range job.batch {
		if r.Err != nil {
			p.ticket.fail(r.Err)
		} else {
			p.ticket.resolve(outcomes[bi])
		}
	}
	return r
}

// assemble builds the round's canonical instance, the Round stamped with the
// seq it will claim: committed slices in admission order, then the batch
// sorted by name (in place), so the instance — and with the tie-broken solver,
// the decision — is independent of submission interleaving and cut timing.
func (d *domain) assemble(batch []pending) (*Round, []core.TenantSpec) {
	sort.Slice(batch, func(i, j int) bool { return batch[i].req.Name < batch[j].req.Name })
	r := &Round{Domain: d.name, Seq: d.rounds}
	specs := make([]core.TenantSpec, 0, len(d.committed)+len(batch))
	r.Names = make([]string, 0, cap(specs))
	for _, m := range d.committed {
		specs = append(specs, core.TenantSpec{
			Name: m.name, SLA: m.sla,
			LambdaHat: m.lambdaHat, Sigma: m.sigma,
			RemainingEpochs: m.remaining,
			Committed:       true, CommittedCU: m.cu,
		})
		r.Names = append(r.Names, m.name)
	}
	for _, p := range batch {
		specs = append(specs, newTenantSpec(p.req))
		r.Names = append(r.Names, p.req.Name)
	}
	return r, specs
}

// logRound is log-before-ack: the round's inputs, and every record buffered
// before them, become durable in one group fsync before any outcome reaches a
// caller, so a crash after it replays the round and a crash before it owes
// nobody. An error poisons the round rather than ack what a crash would lose.
// Caller holds the domain's dmu, the lock its other records append under.
func (e *Engine) logRound(domain string, seq uint64, batch []pending) error {
	if e.cfg.Log == nil {
		return nil
	}
	reqs := make([]Request, len(batch))
	for i, p := range batch {
		reqs[i] = p.req
	}
	if err := e.cfg.Log.AppendRound(domain, seq, reqs); err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	if err := e.cfg.Log.SyncRound(); err != nil {
		return fmt.Errorf("wal sync: %w", err)
	}
	return nil
}

// decide claims the round's seq (a solver error replays to the same error)
// and solves on exec — bit-identical to the local solver by contract — or on
// the domain's own solver when exec is nil, declines with ErrNoWorker or
// replies with something the commit below cannot use (counted). On
// success it commits: committed slices stay admitted (constraint (13)) and
// re-track their forecasts, admitted requests join them. Caller holds dmu.
func (d *domain) decide(r *Round, specs []core.TenantSpec, batch []pending, exec Executor) ([]Outcome, error) {
	d.rounds++
	if len(specs) == 0 {
		r.Decision = &core.Decision{} // nothing to decide, nothing to re-optimize
		return nil, nil
	}
	var dec *core.Decision
	err := ErrNoWorker
	if exec != nil {
		dec, err = exec.SolveRound(d.name, r.Seq, d.topoEvents, specs)
		if errors.Is(err, ErrBadReply) || err == nil && !usable(dec, len(specs), len(d.cfg.Net.CUs), d.solver.Paths()) {
			d.badReplies.Add(1)
			err = ErrNoWorker
		}
	}
	if errors.Is(err, ErrNoWorker) {
		dec, err = d.solver.SolveRound(d.name, r.Seq, d.topoEvents, specs)
	}
	if err != nil {
		return nil, err
	}
	r.Decision = dec
	for i, m := range d.committed {
		if dec.Accepted[i] {
			m.cu = dec.CU[i]
			m.reserved = append(m.reserved[:0], dec.Z[i]...)
			m.pathIdx = append(m.pathIdx[:0], dec.PathIdx[i]...)
		}
	}
	base := len(d.committed)
	outcomes := make([]Outcome, len(batch))
	for bi, p := range batch {
		ti := base + bi
		out := Outcome{Name: p.req.Name, Round: r.Seq, Latency: time.Since(p.submitted)}
		if dec.Accepted[ti] {
			out.Admitted = true
			out.CU = dec.CU[ti]
			out.Reserved = append([]float64(nil), dec.Z[ti]...)
			out.PathIdx = append([]int(nil), dec.PathIdx[ti]...)
			m := &member{
				name: p.req.Name, tenant: p.req.tenantKey(),
				sla:       p.req.SLA,
				lambdaHat: specs[ti].LambdaHat, sigma: specs[ti].Sigma,
				remaining: specs[ti].RemainingEpochs,
				cu:        out.CU,
				reserved:  append([]float64(nil), dec.Z[ti]...),
				pathIdx:   append([]int(nil), dec.PathIdx[ti]...),
			}
			d.committed = append(d.committed, m)
			d.byName[m.name] = m
			r.Admitted = append(r.Admitted, m.name)
		} else {
			out.Reason = "rejected by solver"
			r.Rejected = append(r.Rejected, p.req.Name)
		}
		outcomes[bi] = out
	}
	return outcomes, nil
}

// usable reports whether dec is a decision the commit can index and the
// orchestrator can program: one entry per tenant and one per base station
// in each Z and PathIdx row, every Z finite, and each accepted tenant on
// one of the nCU CUs over paths[b][CU] that exist. It allocates nothing.
func usable(dec *core.Decision, tenants, nCU int, paths [][][]topology.Path) bool {
	if dec == nil || len(dec.Accepted) != tenants || len(dec.CU) != tenants ||
		len(dec.Z) != tenants || len(dec.PathIdx) != tenants {
		return false
	}
	for i := range tenants {
		if len(dec.Z[i]) != len(paths) || len(dec.PathIdx[i]) != len(paths) {
			return false
		}
		for _, z := range dec.Z[i] {
			if math.IsNaN(z) || math.IsInf(z, 0) {
				return false
			}
		}
		if !dec.Accepted[i] {
			continue
		}
		cu := dec.CU[i]
		if cu < 0 || cu >= nCU {
			return false
		}
		for b, p := range dec.PathIdx[i] {
			if p < 0 || p >= len(paths[b][cu]) {
				return false
			}
		}
	}
	return true
}

// book wraps the round's error into r.Err, or books its expected revenue.
// Replay books too: the ledger snapshot predates the replayed rounds.
func (e *Engine) book(r *Round, err error) {
	if err != nil {
		r.Err = fmt.Errorf("admission: round %d in domain %q: %w", r.Seq, r.Domain, err)
		return
	}
	if e.cfg.Ledger != nil {
		e.cfg.Ledger.BookExpected(r.Domain, r.Decision.Revenue())
	}
}

// newTenantSpec maps a fresh request to the optimizer's view: cold-start
// conservatism (λ̂ = Λ, σ̂ = 1) unless the caller supplied a forecast.
func newTenantSpec(req Request) core.TenantSpec {
	lam := req.SLA.RateMbps
	lhat := req.LambdaHat
	if lhat <= 0 {
		lhat = lam
	} else {
		lhat = math.Min(lhat, lam)
	}
	sigma := req.Sigma
	if sigma <= 0 || sigma > 1 {
		sigma = 1
	}
	remaining := req.SLA.Duration
	if remaining < 1 {
		remaining = 1
	}
	return core.TenantSpec{
		Name: req.Name, SLA: req.SLA,
		LambdaHat: lhat, Sigma: sigma,
		RemainingEpochs: remaining,
	}
}
