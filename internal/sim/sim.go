package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/parallel"
	"repro/internal/slice"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/yield"
)

// LoadShape selects a slice's true traffic process.
type LoadShape int

// Load shapes.
const (
	// ShapeGaussian, the zero value, draws i.i.d. normal samples clipped at
	// zero (a constant stream when StdMbps is 0).
	ShapeGaussian LoadShape = iota
	ShapeDiurnal
	// ShapeHeavyTail draws log-normal samples moment-matched to
	// (MeanMbps, StdMbps): rare far-above-mean peaks stress the
	// peak-tracking forecaster.
	ShapeHeavyTail
	// ShapeTrace replays the recorded samples in SliceSpec.TraceMbps (each
	// BS reads the shared trace at a seed-derived rotation) instead of a
	// synthetic process — the trace-replay arrival source.
	ShapeTrace
)

// SliceSpec describes one tenant's request and true traffic process.
type SliceSpec struct {
	Name          string
	Template      slice.Template
	PenaltyFactor float64 // m: K = m·R
	MeanMbps      float64 // λ̄ of the actual per-BS load
	StdMbps       float64 // σ of the actual per-BS load
	ArrivalEpoch  int
	Duration      int // L, epochs; slices re-apply while pending
	Seed          int64
	// Shape selects the load process; for ShapeDiurnal MeanMbps is the
	// profile midpoint.
	Shape LoadShape
	// TraceMbps is the recorded sample sequence ShapeTrace replays
	// (traffic.Trace); ignored for every other shape.
	TraceMbps []float64
}

// Config parameterizes a run.
type Config struct {
	Net             *topology.Network
	KPaths          int // k-shortest paths per (BS, CU); default 3
	SamplesPerEpoch int // κ; default 12 (one sample per 5 min, 1 h epochs)
	Epochs          int
	Slices          []SliceSpec
	// Algorithm names the AC-RR solver as core.NewSolver does; default
	// "direct".
	Algorithm string
	// HWPeriod is the Holt-Winters seasonal period in epochs; default 12.
	HWPeriod int
	// ReofferPending keeps rejected requests in the queue (the Fig. 5/6
	// steady-state methodology); false drops them after one try (Fig. 8).
	ReofferPending bool
	// ForecastPad inflates λ̂ by (1 + ForecastPad·σ̂) before reserving.
	// The paper reserves the bare peak forecast — its testbed numbers
	// (uRLLC1 shrinking to exactly the 6 cores that let uRLLC2 fit the
	// 16-core edge CU) only work unpadded — so the default is 0; raise it
	// to trade admission gains for a smaller SLA-violation footprint.
	ForecastPad float64
	// ColdSolver disables cross-epoch solver state: every epoch is solved
	// from scratch. Admission decisions are identical to the warm pipeline.
	// `scenario run -cold` sets it, and so do the warm = cold tests that
	// pin that claim (and BenchmarkSimEpochs' cold leg).
	ColdSolver bool
	// Workers bounds the measurement stage's worker pool; 0 means
	// GOMAXPROCS, 1 forces serial. Traces are bit-identical at any value.
	Workers int
	// Events reshapes the topology at epoch boundaries — BS outages and
	// recoveries, capacity degradation ramps, operator join/leave
	// (topology.Schedule semantics). Empty keeps the static published
	// network, byte-identical to the pre-dynamics pipeline. Event epochs
	// force a conservative cold solver rebuild (the Network pointer moves);
	// quiet epochs stay on the warm path.
	Events []topology.Event
	// StaticReservations freezes every committed slice at its cold-start
	// full-SLA view (λ̂ = Λ, σ̂ = 1) forever: forecast-driven rescaling is
	// disabled exactly like reopt.Config.ReoptEvery < 0 disables it online.
	// This is the static baseline the yield-regression hunter compares the
	// closed loop against.
	StaticReservations bool
}

func (c Config) withDefaults() Config {
	if c.KPaths == 0 {
		c.KPaths = 3
	}
	if c.SamplesPerEpoch == 0 {
		c.SamplesPerEpoch = 12
	}
	if c.HWPeriod == 0 {
		c.HWPeriod = 12
	}
	if c.Algorithm == "" {
		c.Algorithm = "direct"
	}
	return c
}

// TenantEpoch is the per-slice outcome of one epoch (feeds Fig. 8).
type TenantEpoch struct {
	Name     string
	Type     slice.Type
	Active   bool
	CU       int
	Reserved []float64 // per-BS z (Mb/s)
	Peak     []float64 // per-BS measured peak load (Mb/s)
	PathIdx  []int     // per-BS path index into Paths[bs][CU]
	// Violated counts monitoring samples where in-SLA demand exceeded the
	// reservation; Dropped is the epoch's mean dropped SLA fraction.
	Violated int
	Dropped  float64
	Revenue  float64 // realized: reward − penalty
}

// EpochStats aggregates one epoch.
type EpochStats struct {
	Epoch           int
	Accepted        int
	Revenue         float64 // realized net revenue this epoch
	ExpectedRevenue float64 // −Ψ as estimated by the solver
	Violations      int     // violated samples across slices and BSs
	Samples         int     // total monitored samples across slices and BSs
	DeficitCost     float64
	Tenants         []TenantEpoch
}

// Result is a full run.
type Result struct {
	Config       Config
	Epochs       []EpochStats
	TotalRevenue float64
	// MeanRevenue is the per-epoch average over the second half of the
	// run, past the forecaster warm-up (the steady state the paper's
	// standard-error stopping rule targets).
	MeanRevenue float64
	// ViolationProb is violated samples / total samples (the §4.3.3
	// "0.0001%" sanity metric); MeanDrop is the mean dropped SLA fraction
	// conditioned on violation.
	ViolationProb float64
	MeanDrop      float64
	// Yield is the run's revenue account in the shared ledger vocabulary
	// (internal/yield): per-slice reward/penalty/realized totals plus the
	// solver-side expected revenue per epoch — the same Summary shape the
	// online closed loop publishes through /metrics.
	Yield yield.Summary
}

// Trace renders the full run as a deterministic text fingerprint: every
// epoch's admissions, placements, reservations, peaks and revenue, floats
// printed exactly. Two runs of the same Config are bit-identical at any
// worker count, so tests compare Traces directly.
func (r *Result) Trace() string {
	var b strings.Builder
	for _, es := range r.Epochs {
		fmt.Fprintf(&b, "epoch %d accepted=%d rev=%v exp=%v viol=%d/%d deficit=%v\n",
			es.Epoch, es.Accepted, es.Revenue, es.ExpectedRevenue, es.Violations, es.Samples, es.DeficitCost)
		for _, te := range es.Tenants {
			fmt.Fprintf(&b, "  %s/%s active=%v cu=%d path=%v z=%v peak=%v viol=%d drop=%v rev=%v\n",
				te.Name, te.Type, te.Active, te.CU, te.PathIdx,
				te.Reserved, te.Peak, te.Violated, te.Dropped, te.Revenue)
		}
	}
	fmt.Fprintf(&b, "total=%v mean=%v viol=%v drop=%v\n",
		r.TotalRevenue, r.MeanRevenue, r.ViolationProb, r.MeanDrop)
	return b.String()
}

// DecisionTrace renders only the solver-decided part of the run — the
// admission set, CU placements, path choices and the expected revenue
// (rounded past solver tolerance). Reservations are deliberately excluded:
// alternate LP optima may place z differently at equal objective, which is
// why the warm/cold equality contract is stated on decisions, not on z.
func (r *Result) DecisionTrace() string {
	var b strings.Builder
	for _, es := range r.Epochs {
		fmt.Fprintf(&b, "epoch %d accepted=%d exp=%.4f:", es.Epoch, es.Accepted, es.ExpectedRevenue)
		for _, te := range es.Tenants {
			if te.Active {
				fmt.Fprintf(&b, " %s@cu%d%v", te.Name, te.CU, te.PathIdx)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// tenantState is the simulator's live view of one slice.
type tenantState struct {
	spec      SliceSpec
	sla       slice.SLA
	gens      []traffic.Generator // one per BS
	fc        forecast.Forecaster
	committed bool
	seq       int // admission order: 1 + slices admitted before it; 0 until admitted
	cu        int
	remaining int
	done      bool
}

// newEpochSolver resolves the configured algorithm through core's solver
// table (stateful solvers — the cross-epoch Benders session — carry cuts
// and simplex bases between epochs). The one solver it builds itself is
// the ColdSolver reference: Benders from scratch every epoch.
func newEpochSolver(cfg Config) (core.SolveFunc, error) {
	if cfg.Algorithm == "benders" && cfg.ColdSolver {
		return func(inst *core.Instance) (*core.Decision, error) {
			return core.SolveBenders(inst, core.BendersOptions{})
		}, nil
	}
	solve, err := core.NewSolver(cfg.Algorithm, core.BendersOptions{})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return solve, nil
}

// engine is one run's pipeline state.
type engine struct {
	cfg    Config
	paths  [][][]topology.Path
	nBS    int
	states []*tenantState
	solver core.SolveFunc
	sched  *topology.Schedule // nil without Events
	seq    int                // slices admitted so far

	res             *Result
	ledger          *yield.Ledger
	totalViolations int
	totalSamples    int
	dropSum         float64
	dropCount       int
}

// Run executes the scenario and returns per-epoch statistics.
func Run(cfg Config) (*Result, error) {
	eng, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	for t := 0; t < eng.cfg.Epochs; t++ {
		if err := eng.step(t); err != nil {
			return nil, err
		}
	}
	return eng.finish(), nil
}

// newEngine validates the config and builds the per-tenant state.
func newEngine(cfg Config) (*engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Net == nil || cfg.Epochs <= 0 {
		return nil, fmt.Errorf("sim: config needs a topology and a positive epoch count")
	}
	solver, err := newEpochSolver(cfg)
	if err != nil {
		return nil, err
	}
	eng := &engine{
		cfg:    cfg,
		paths:  cfg.Net.Paths(cfg.KPaths),
		nBS:    cfg.Net.NumBS(),
		solver: solver,
		res:    &Result{Config: cfg},
		ledger: yield.NewLedger(),
	}
	if len(cfg.Events) > 0 {
		eng.sched, err = topology.NewSchedule(cfg.Net, cfg.Events)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	eng.states = make([]*tenantState, len(cfg.Slices))
	for i, sp := range cfg.Slices {
		sla := slice.SLA{Template: sp.Template, MeanMbps: sp.MeanMbps, Duration: sp.Duration}.
			WithPenaltyFactor(sp.PenaltyFactor)
		st := &tenantState{spec: sp, sla: sla, remaining: sp.Duration}
		st.gens = make([]traffic.Generator, eng.nBS)
		for b := 0; b < eng.nBS; b++ {
			st.gens[b] = NewGenerator(cfg, sp, b)
		}
		st.fc = forecast.NewAdaptive(forecast.Alpha, forecast.Beta, forecast.Gamma, cfg.HWPeriod)
		eng.states[i] = st
	}
	return eng, nil
}

// NewGenerator builds the per-(slice, BS) load process for the spec —
// exactly the generator the simulator's measurement stage draws from.
// Exported so online drivers (the closed-loop tests, loadgen's measured
// mode) can replay the same traffic the offline pipeline would have seen.
func NewGenerator(cfg Config, sp SliceSpec, b int) traffic.Generator {
	seed := sp.Seed*1000 + int64(b) + 1
	switch {
	case sp.Shape == ShapeTrace:
		// Every (slice, BS) pair replays the same recorded trace at a
		// seed-derived rotation, so BSs and tenants decorrelate without
		// drawing a single random number — replay is exact.
		return traffic.NewTrace(sp.TraceMbps, cfg.SamplesPerEpoch, int(seed))
	case sp.Shape == ShapeDiurnal:
		return traffic.NewDiurnal(
			math.Max(0, sp.MeanMbps-2*sp.StdMbps), sp.MeanMbps+2*sp.StdMbps,
			cfg.HWPeriod*2, cfg.SamplesPerEpoch, sp.StdMbps/4, seed)
	case sp.StdMbps == 0:
		return traffic.Constant{MeanMbps: sp.MeanMbps}
	case sp.Shape == ShapeHeavyTail:
		return traffic.NewLogNormal(sp.MeanMbps, sp.StdMbps, seed)
	default:
		return traffic.NewGaussian(sp.MeanMbps, sp.StdMbps, seed)
	}
}

// step runs one epoch through the four pipeline stages.
func (e *engine) step(t int) error {
	// The epoch's topology: the scheduled derivation when events exist
	// (same pointer on quiet epochs, which is what keeps the warm solver
	// session rebinding instead of rebuilding), the static network
	// otherwise. Paths stay valid by construction — events move
	// capacities, never structure.
	net := e.cfg.Net
	var bsUp []bool
	if e.sched != nil {
		net = e.sched.At(t)
		bsUp = e.sched.BSUpMask(t)
	}
	specs, idxOf := e.assemble(t)
	inst := &core.Instance{
		Net: net, Paths: e.paths, Tenants: specs,
		Overbook: e.cfg.Algorithm != "no-overbooking", BigM: core.DefaultBigM,
	}
	dec, err := e.solver(inst)
	if err != nil {
		return fmt.Errorf("sim: epoch %d: %w", t, err)
	}
	es := EpochStats{Epoch: t, ExpectedRevenue: dec.Revenue(),
		DeficitCost: inst.BigM * (dec.DeficitRadio + dec.DeficitTransport + dec.DeficitCompute)}
	e.ledger.BookExpected("sim", es.ExpectedRevenue)
	e.measure(t, dec, idxOf, bsUp, &es)
	e.totalViolations += es.Violations
	e.totalSamples += es.Samples
	e.res.TotalRevenue += es.Revenue
	e.res.Epochs = append(e.res.Epochs, es)
	return nil
}

// assemble gathers the epoch's decision round in the stack's canonical
// order: committed slices in admission order, then the requests that have
// arrived (or are re-offered while pending) sorted by name — the order
// internal/admission gives every round, so one compiled scenario poses the
// same instance to both, down to the objective's last bit.
func (e *engine) assemble(t int) ([]core.TenantSpec, []int) {
	var idxOf, offered []int // idxOf: instance tenant index -> states index
	for i, st := range e.states {
		switch {
		case st.done:
		case st.committed:
			idxOf = append(idxOf, i)
		case st.spec.ArrivalEpoch == t || e.cfg.ReofferPending && st.spec.ArrivalEpoch <= t:
			offered = append(offered, i)
		}
	}
	sort.Slice(idxOf, func(a, b int) bool { return e.states[idxOf[a]].seq < e.states[idxOf[b]].seq })
	sort.SliceStable(offered, func(a, b int) bool { return e.states[offered[a]].spec.Name < e.states[offered[b]].spec.Name })
	idxOf = append(idxOf, offered...)
	specs := make([]core.TenantSpec, 0, len(idxOf))
	for _, i := range idxOf {
		st := e.states[i]
		lambdaHat, sigma := st.forecastView(e.cfg.ForecastPad)
		if e.cfg.StaticReservations {
			// Static baseline: forecasts never reach the solver, so
			// committed reservations stay at the full-SLA cold-start view.
			lambdaHat, sigma = st.sla.RateMbps, 1
		}
		specs = append(specs, core.TenantSpec{
			Name:            st.spec.Name,
			SLA:             st.sla,
			LambdaHat:       lambdaHat,
			Sigma:           sigma,
			RemainingEpochs: st.remaining,
			Committed:       st.committed,
			CommittedCU:     st.cu,
		})
	}
	return specs, idxOf
}

// measure applies the decision, draws the epoch's monitoring samples —
// fanned out per tenant over the worker pool; every tenant owns its seeded
// generators and forecaster, so the trace is independent of the worker
// count — then reduces the per-tenant outcomes in deterministic tenant
// order and advances lifecycles.
func (e *engine) measure(t int, dec *core.Decision, idxOf []int, bsUp []bool, es *EpochStats) {
	outcomes := make([]TenantEpoch, len(idxOf))
	assessments := make([]*yield.Assessment, len(idxOf))
	parallel.ForEach(len(idxOf), e.cfg.Workers, func(ti int) {
		st := e.states[idxOf[ti]]
		te := TenantEpoch{Name: st.spec.Name, Type: st.spec.Template.Type}
		if !dec.Accepted[ti] {
			if !e.cfg.ReofferPending && !st.committed {
				st.done = true // one-shot request, rejected for good
			}
			outcomes[ti] = te
			return
		}
		if !st.committed {
			st.committed = true
			st.cu = dec.CU[ti]
		}
		te.Active, te.CU = true, st.cu
		te.Reserved = append([]float64(nil), dec.Z[ti]...)
		te.PathIdx = append([]int(nil), dec.PathIdx[ti]...)

		// Draw the epoch's monitoring samples per BS, scoring each one
		// through the shared yield assessment. The assessment performs
		// the identical arithmetic (in-SLA clipping, deficit/Λ drops,
		// R − K·f pricing) in the identical order, so moving the
		// economics into internal/yield cannot shift a trace by a bit.
		te.Peak = make([]float64, e.nBS)
		as := yield.NewAssessment(st.sla.RateMbps)
		maxPeak := 0.0
		for b := 0; b < e.nBS; b++ {
			for theta := 0; theta < e.cfg.SamplesPerEpoch; theta++ {
				load := st.gens[b].Sample(t, theta)
				if bsUp != nil && !bsUp[b] {
					// A dark BS serves nothing: the sample is still drawn
					// (the generator's stream must not depend on outage
					// timing) but the observed load — and therefore any
					// SLA exposure at this BS — is zero.
					load = 0
				}
				if load > te.Peak[b] {
					te.Peak[b] = load
				}
				as.Sample(load, dec.Z[ti][b])
			}
			if te.Peak[b] > maxPeak {
				maxPeak = te.Peak[b]
			}
		}
		te.Violated = as.Violated()
		te.Dropped = as.DroppedFrac()
		te.Revenue = as.Realized(st.sla.Reward, st.sla.Penalty)
		assessments[ti] = as

		// Feed the forecaster with the across-BS peak (conservative
		// max-aggregation) and tick the lifetime.
		st.fc.Observe(maxPeak)
		st.remaining--
		if st.remaining <= 0 {
			st.done = true
		}
		outcomes[ti] = te
	})

	// Deterministic reduction in tenant order; ledger booking happens
	// here, never in the workers, so the account is identical at any
	// worker count.
	for ti := range idxOf {
		te := outcomes[ti]
		if te.Active {
			es.Accepted++
			es.Samples += e.cfg.SamplesPerEpoch * e.nBS
			es.Violations += te.Violated
			es.Revenue += te.Revenue
			if te.Violated > 0 {
				e.dropSum += te.Dropped
				e.dropCount++
			}
			st := e.states[idxOf[ti]]
			if st.seq == 0 {
				e.seq++
				st.seq = e.seq
			}
			e.ledger.Book(assessments[ti].Entry(te.Name, t, st.sla.Reward, st.sla.Penalty))
		}
		es.Tenants = append(es.Tenants, te)
	}
}

// finish computes the run-level aggregates.
func (e *engine) finish() *Result {
	res := e.res
	// Steady-state mean over the second half of the run.
	half := len(res.Epochs) / 2
	sum := 0.0
	for _, es := range res.Epochs[half:] {
		sum += es.Revenue
	}
	if n := len(res.Epochs) - half; n > 0 {
		res.MeanRevenue = sum / float64(n)
	}
	if e.totalSamples > 0 {
		res.ViolationProb = float64(e.totalViolations) / float64(e.totalSamples)
	}
	if e.dropCount > 0 {
		res.MeanDrop = e.dropSum / float64(e.dropCount)
	}
	res.Yield = e.ledger.Snapshot()
	return res
}

// forecastView returns (λ̂, σ̂) for the tenant: full-SLA conservatism until
// the slice is committed and the forecaster has warmed up, the (optionally
// padded) peak forecast afterwards — the shared forecast.View reading.
func (st *tenantState) forecastView(pad float64) (float64, float64) {
	if !st.committed {
		return st.sla.RateMbps, 1 // never admitted: no monitored history yet
	}
	return forecast.View(st.fc, st.sla.RateMbps, pad)
}
