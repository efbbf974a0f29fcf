package admission

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/slice"
	"repro/internal/topology"
	"repro/internal/yield"
)

// Intake errors. ErrOverloaded is the backpressure surface: callers are
// expected to retry later or route elsewhere.
var (
	// ErrOverloaded means the bounded intake queue is full; the request was
	// shed without being queued.
	ErrOverloaded = errors.New("admission: engine overloaded, request shed")
	// ErrDuplicate means a request with the same name is already queued or
	// committed in the domain.
	ErrDuplicate = errors.New("admission: duplicate request name")
	// ErrStopped means the engine is not accepting requests (not started,
	// draining, or stopped).
	ErrStopped = errors.New("admission: engine not accepting requests")
	// ErrUnknownDomain means the request names a domain the engine does not
	// serve.
	ErrUnknownDomain = errors.New("admission: unknown domain")
	// ErrNoWorker is how an Executor declines a round it has no worker for;
	// the engine then solves the round on the domain's own solver.
	ErrNoWorker = errors.New("admission: executor has no worker for the round")
)

// DefaultDomain is the domain used when Request.Domain is empty — the
// single-operator deployments (ctrlplane) never need to name one.
const DefaultDomain = "default"

// Request is one tenant slice request offered to the engine.
type Request struct {
	// Domain routes the request to an operator domain (and therefore to a
	// shard); empty means DefaultDomain.
	Domain string
	// Tenant identifies the slice's owner (CommittedSlice.Tenant); empty
	// means Name.
	Tenant string
	// Name identifies the slice; unique among queued and committed slices
	// of the domain (rejected and expired names may be reused).
	Name string
	// SLA carries the template, commercial terms and Duration (epochs).
	SLA slice.SLA
	// LambdaHat and Sigma are the forecast view; zero values mean the
	// cold-start conservative (λ̂ = Λ, σ̂ = 1), exactly how the simulator
	// treats slices with no monitored history.
	LambdaHat float64
	Sigma     float64
}

// tenantKey resolves the slice's tenant.
func (r Request) tenantKey() string {
	if r.Tenant != "" {
		return r.Tenant
	}
	return r.Name
}

// Outcome is the engine's decision for one request.
type Outcome struct {
	Name     string
	Admitted bool
	// FastRejected marks prefilter rejections (no LP was solved).
	FastRejected bool
	// Reason explains a rejection ("" when admitted).
	Reason string
	// CU, Reserved and PathIdx carry the placement for admitted requests
	// (per-BS reservation in Mb/s, per-BS path index into Paths[b][CU]).
	CU       int
	Reserved []float64
	PathIdx  []int
	// Round is the per-domain round sequence number that decided the
	// request (0 for fast rejections, which never enter a round).
	Round uint64
	// Latency is submit-to-decision wall time.
	Latency time.Duration
}

// Ticket is the caller's handle on a pending decision.
type Ticket struct {
	done chan struct{}
	out  Outcome
	err  error
}

func newTicket() *Ticket { return &Ticket{done: make(chan struct{})} }

// resolve delivers the outcome; must be called exactly once.
func (t *Ticket) resolve(out Outcome) {
	t.out = out
	close(t.done)
}

// fail delivers an error instead of an outcome; must be called exactly once.
func (t *Ticket) fail(err error) {
	t.err = err
	close(t.done)
}

// Done is closed once the decision (or a terminal error) is available.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the decision is available or the context ends.
func (t *Ticket) Wait(ctx context.Context) (Outcome, error) {
	select {
	case <-t.done:
		return t.out, t.err
	case <-ctx.Done():
		return Outcome{}, ctx.Err()
	}
}

// Outcome returns the decision without blocking; ok is false while the
// request is still in flight (or when the ticket failed).
func (t *Ticket) Outcome() (out Outcome, ok bool) {
	select {
	case <-t.done:
		return t.out, t.err == nil
	default:
		return Outcome{}, false
	}
}

// Err returns the terminal error, if any, once the ticket is done.
func (t *Ticket) Err() error {
	select {
	case <-t.done:
		return t.err
	default:
		return nil
	}
}

// Executor runs one admission round's solve step outside the engine's own
// process — the seam the distributed control plane (internal/cluster)
// plugs a remote worker into. The engine calls SolveRound under
// the domain's solver lock with the round already logged, passing the
// exact inputs a local solve would see: the tenants in canonical order and
// the domain's accumulated capacity events (the remote side re-derives the
// live network from them against its own copy of the base topology). The
// solve is a pure function of those inputs — warm solver state is a cache
// that cannot move a decision (the warm==cold pins) — so a remote solve,
// a re-dispatched solve after a worker loss, and a local solve all return
// the bit-identical decision.
//
// Neither slice may be retained or mutated past the call. An executor with
// no worker for the round returns ErrNoWorker (wrapped or not), and the
// engine solves the round on the domain's own LocalSolver — the one solver
// a domain has in the engine's process. Any other error is final: the round
// fails and nothing solves it locally (a fenced leader must not decide).
// Recovery replay (ReplayRound) never routes through an Executor: it always
// solves on that local solver, so a crashed coordinator recovers without
// waiting for workers to rejoin.
type Executor interface {
	SolveRound(domain string, seq uint64, events []topology.Event, tenants []core.TenantSpec) (*core.Decision, error)
}

// DomainConfig describes one operator domain the engine serves: its
// topology, path budget and AC-RR algorithm.
type DomainConfig struct {
	Net    *topology.Network
	KPaths int // k-shortest paths per (BS, CU); default 3
	// Algorithm selects the solver: "benders" (default; warm cross-round
	// session), "direct", "kac", or "no-overbooking".
	Algorithm string
	// BigM prices deficit capacity exactly as core.Instance.BigM; the
	// default is core.DefaultBigM. Negative disables the relaxation (hard
	// capacity), which also arms the prefilter's capacity checks.
	BigM float64
	// RiskHorizon forwards to core.Instance.RiskHorizon (0 = default).
	RiskHorizon int
	// Benders tunes the warm session ("benders" only).
	Benders core.BendersOptions
	// Executor, when set, runs the domain's round solves remotely (the
	// cluster coordinator). Nil keeps every solve on the in-process
	// solver — the single-binary mode, bit-identical by the Executor
	// contract. Replay, and a round the executor declines, solve locally.
	Executor Executor
}

// Normalized returns the config exactly as the engine will use it —
// defaults applied, BigM sign resolved. The cluster layer normalizes a
// domain spec once here so coordinator-side and worker-side solves assemble
// identical instances. The algorithm name is checked where the solver is
// built (NewLocalSolver, which AddDomain calls).
func (dc DomainConfig) Normalized() (DomainConfig, error) { return dc.withDefaults() }

func (dc DomainConfig) withDefaults() (DomainConfig, error) {
	if dc.Net == nil {
		return dc, fmt.Errorf("admission: domain needs a topology")
	}
	if dc.KPaths == 0 {
		dc.KPaths = 3
	}
	if dc.Algorithm == "" {
		dc.Algorithm = "benders"
	}
	if dc.BigM == 0 {
		dc.BigM = core.DefaultBigM
	} else if dc.BigM < 0 {
		dc.BigM = 0 // hard capacity constraints
	}
	return dc, nil
}

// overbook reports whether the domain's solver overbooks (everything but
// the no-overbooking baseline).
func (dc DomainConfig) overbook() bool { return dc.Algorithm != "no-overbooking" }

// RoundLog is the engine's durability hook, implemented by internal/wal:
// the engine appends each round's inputs — the batch in canonical order,
// forecast updates, epoch advances — and group-commits once per round with
// SyncRound before any caller observes an outcome (log-before-ack). The
// non-round appends are buffered; the round boundary is the only fsync.
// Implementations must be safe for concurrent use (shards of different
// domains log concurrently).
type RoundLog interface {
	// AppendRound records one round's fresh batch (already in canonical
	// sorted order) under the domain's round sequence number.
	AppendRound(domain string, seq uint64, batch []Request) error
	// AppendForecasts records a forecast-view refresh of committed slices.
	AppendForecasts(domain string, ups []ForecastUpdate) error
	// AppendAdvance records one epoch tick of the domain's lifecycle clock.
	AppendAdvance(domain string) error
	// AppendTopology records a batch of capacity events applied to the
	// domain's live network (ApplyTopology fsyncs it before mutating).
	AppendTopology(domain string, events []topology.Event) error
	// SyncRound makes everything appended so far durable; called once per
	// round, before the round's outcomes are acked.
	SyncRound() error
}

// Config parameterizes the engine.
type Config struct {
	// Shards is the number of serial lanes, the most rounds in flight. Default 1.
	Shards int
	// QueueDepth bounds requests accepted but not yet decided; beyond it
	// Submit sheds with ErrOverloaded. Default 1024.
	QueueDepth int
	// MaxBatch flushes a domain's batch into a round once it reaches this
	// size; 0 disables size-triggered flushing (timer/manual only).
	MaxBatch int
	// FlushEvery flushes all non-empty batches on this period; 0 disables
	// the timer (manual Flush/DecideRound only — the ctrlplane epoch mode).
	FlushEvery time.Duration
	// Store, when set, receives each round's wall time (slice "admission",
	// metric "round_ms", element = domain name, epoch = the domain's round
	// number).
	Store *monitor.Store
	// Ledger, when set, receives each round's solver-estimated net revenue
	// (core.Decision.Revenue()) via BookExpected — the expected side of
	// the yield account. The realized side is booked by whoever monitors
	// actual traffic (the closed-loop controller, internal/reopt).
	Ledger *yield.Ledger
	// Log, when set, makes decisions durable: every round's inputs are
	// appended and fsynced before its outcomes resolve, so a crashed
	// engine rebuilt via RestoreDomain + ReplayRound reproduces the
	// committed state bit for bit (internal/wal).
	Log RoundLog
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	return c
}

// Round reports one executed admission round.
type Round struct {
	Domain string
	// Seq is the domain's round sequence number.
	Seq uint64
	// Names lists the instance's tenants in solve order: committed slices
	// in admission order, then the round's batch sorted by name.
	Names []string
	// Decision is the solver's full output, indexed like Names. Never nil
	// on success (a tenantless round yields an empty decision).
	Decision *core.Decision
	// Admitted and Rejected partition the round's batch (not the
	// already-committed slices, which stay admitted by constraint (13)).
	Admitted, Rejected []string
	// BatchSize is the number of fresh requests decided this round.
	BatchSize int
	// Err is the solver error, if any; the round decided nothing.
	Err error
}
