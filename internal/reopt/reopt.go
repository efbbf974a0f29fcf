package reopt

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/admission"
	"repro/internal/forecast"
	"repro/internal/monitor"
	"repro/internal/yield"
)

// ObservedPeak is one slice's §2.2.2 max-aggregated epoch peak, the exact
// value fed to its forecast tracker. Logged (internal/wal) so recovery can
// re-feed trackers without the monitor store, which is not durable.
type ObservedPeak struct {
	Name string  `json:"name"`
	Peak float64 `json:"peak"`
}

// StepLog is the controller's durability hook, implemented by internal/wal.
// It captures the two step inputs that are DERIVED from the ephemeral
// monitor store — settled yield entries and observed demand peaks — so
// replay needs no store at all. Both appends are buffered; they become
// durable with the step's round fsync (admission.RoundLog.SyncRound).
type StepLog interface {
	// AppendSettle records the realized-yield entries booked for an ended
	// epoch (not called when nothing settled).
	AppendSettle(domain string, epoch int, entries []yield.Entry) error
	// AppendObserve records the full alive set and the observed peaks of
	// one step. Appended every step even when both are empty: the alive
	// set drives tracker garbage collection, which must replay exactly.
	AppendObserve(domain string, epoch int, alive []string, peaks []ObservedPeak) error
}

// Config wires a Controller to its domain.
type Config struct {
	// Engine is the admission engine whose domain the loop drives. Required.
	Engine *admission.Engine
	// Domain names the engine domain; empty means admission.DefaultDomain.
	Domain string
	// Store is the monitoring backend observations are read from (the
	// monitor.LoadMetric series) and yield samples are published into.
	// Required.
	Store *monitor.Store
	// Ledger receives the realized yield entries; nil creates a private
	// one. Share a ledger (and hand it to admission.Config.Ledger) to get
	// realized and expected revenue in one account.
	Ledger *yield.Ledger

	// HWPeriod is the Holt-Winters period of each slice's
	// forecast.Adaptive tracker (built with forecast.Alpha/Beta/Gamma, as
	// the simulator's are); 0 means 12.
	HWPeriod int
	// ReoptEvery fires the forecast refresh every k-th step; 0 defaults to
	// 1 (every step). Negative disables forecast-driven reoptimization
	// entirely — the static baseline: rounds still run (arrivals must be
	// decided, lifecycles tick) but committed reservations never rescale.
	ReoptEvery int

	// OnRound, when set, runs after each step's round is decided and
	// before lifecycles advance — the ctrlplane programs the data plane
	// here. A non-nil error aborts the step.
	OnRound func(*admission.Round) error

	// Log, when set, makes the step's store-derived inputs durable so a
	// crashed loop replays bit-identically (internal/wal). Pair it with
	// admission.Config.Log on the same WAL store.
	Log StepLog
	// Snapshot, when set with SnapshotEvery > 0, is called after every
	// SnapshotEvery-th step with the controller's durable state; the WAL
	// layer persists it (alongside engine and ledger state) and compacts
	// the log behind it. A non-nil error fails the step.
	Snapshot      func(ControllerState) error
	SnapshotEvery int
}

func (c Config) withDefaults() (Config, error) {
	if c.Engine == nil {
		return c, fmt.Errorf("reopt: config needs an admission engine")
	}
	if c.Store == nil {
		return c, fmt.Errorf("reopt: config needs a monitor store")
	}
	if c.Domain == "" {
		c.Domain = admission.DefaultDomain
	}
	if c.Ledger == nil {
		c.Ledger = yield.NewLedger()
	}
	if c.HWPeriod == 0 {
		c.HWPeriod = 12
	}
	if c.ReoptEvery == 0 {
		c.ReoptEvery = 1
	}
	return c, nil
}

// inForce is the reservation snapshot one settle cycle scores against.
type inForce struct {
	epoch   int // the epoch these reservations served
	members []admission.CommittedSlice
}

// StepReport is one closed-loop cycle's outcome.
type StepReport struct {
	Domain string `json:"domain"`
	Epoch  int    `json:"epoch"`
	// Round is the step's reopt round (admissions + rescaled reservations).
	Round *admission.Round `json:"-"`
	// Settled lists the realized-yield entries booked for the epoch that
	// just ended (empty on the first step: nothing was in force yet).
	Settled []yield.Entry `json:"settled,omitempty"`
	// Observed counts forecaster trackers fed a peak this step; Updated
	// counts forecast views pushed into the engine (0 on static or
	// off-cycle steps).
	Observed int `json:"observed"`
	Updated  int `json:"updated"`
	// Rescaled counts committed slices whose total reservation moved by
	// more than rescaleTol in this step's round — forecast drift turning
	// into reservation change, the loop's whole point.
	Rescaled int `json:"rescaled"`
	// Expired lists slices whose lifetime ended with this step.
	Expired []string `json:"expired,omitempty"`
}

// rescaleTol separates genuine reservation rescaling from solver jitter.
const rescaleTol = 1e-6

// Controller drives one domain's closed loop. Safe for concurrent use,
// though steps themselves are strictly serialized; most callers drive it
// from a single loop (Run, or the ctrlplane epoch handler).
type Controller struct {
	cfg Config

	mu       sync.Mutex
	epoch    int
	trackers map[string]*forecast.Adaptive
	prev     *inForce

	// Step scratch, cleared and refilled every step. Nothing keeps a
	// reference past the step: the store read is consumed in place, and
	// StepLog and Engine.UpdateForecasts encode or copy before they return.
	samples    []monitor.Sample
	prevTotals map[string]float64
	alive      []string
	aliveSet   map[string]bool
	peaks      []ObservedPeak
	ups        []admission.ForecastUpdate
}

// New validates the config and returns an idle controller; nothing runs
// until Step or Run.
func New(cfg Config) (*Controller, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, trackers: map[string]*forecast.Adaptive{},
		prevTotals: map[string]float64{}, aliveSet: map[string]bool{}}, nil
}

// SetLog installs the controller's durability hook after New, alongside
// admission.Engine.SetLog on the same store: a promoted standby gains its
// log once the directory is its own to write.
func (c *Controller) SetLog(log StepLog) {
	c.mu.Lock()
	c.cfg.Log = log
	c.mu.Unlock()
}

// Domain returns the engine domain the controller drives.
func (c *Controller) Domain() string { return c.cfg.Domain }

// Ledger returns the controller's yield account.
func (c *Controller) Ledger() *yield.Ledger { return c.cfg.Ledger }

// Epoch returns the next epoch Step will run.
func (c *Controller) Epoch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Step runs one closed-loop cycle for the controller's current epoch:
// settle the epoch that ended, observe its peaks, reoptimize, advance.
// See the package comment for the full contract.
func (c *Controller) Step() (*StepReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := &StepReport{Domain: c.cfg.Domain, Epoch: c.epoch}

	// 1. settle: score the just-ended epoch's samples against the
	// reservations that served it, booking realized yield. The entries are
	// computed first, logged (they derive from the non-durable store, so
	// replay needs them verbatim), and only then booked.
	if c.prev != nil {
		for _, m := range c.prev.members {
			as := yield.NewAssessment(m.SLA.RateMbps)
			// Keyed per-element reads keep settle linear in the slice's own
			// samples (EpochSamples would rescan every series in the store
			// for each committed slice).
			for b := range m.Reserved {
				c.samples = c.cfg.Store.AppendElementEpochSamples(c.samples[:0], m.Name, monitor.LoadMetric, monitor.BSElement(b), c.prev.epoch)
				for _, sm := range c.samples {
					as.Sample(sm.Value, m.Reserved[b])
				}
			}
			if as.Samples() == 0 {
				// Nothing monitored: nothing to settle.
				continue
			}
			rep.Settled = append(rep.Settled, as.Entry(m.Name, c.prev.epoch, m.SLA.Reward, m.SLA.Penalty))
		}
		if c.cfg.Log != nil && len(rep.Settled) > 0 {
			if err := c.cfg.Log.AppendSettle(c.cfg.Domain, c.prev.epoch, rep.Settled); err != nil {
				return nil, fmt.Errorf("reopt: wal append settle: %w", err)
			}
		}
		for _, e := range rep.Settled {
			c.cfg.Ledger.Book(e)
		}
	}

	// 2. observe + 3. reoptimize. CommittedDetail is in admission order —
	// deterministic — and carries everything the forecast refresh needs.
	committed, err := c.cfg.Engine.CommittedDetail(c.cfg.Domain)
	if err != nil {
		return nil, err
	}
	clear(c.prevTotals)
	for _, m := range committed {
		c.prevTotals[m.Name] = totalOf(m.Reserved)
	}
	reoptNow := c.cfg.ReoptEvery > 0 && c.epoch%c.cfg.ReoptEvery == 0
	alive, peaks := c.alive[:0], c.peaks[:0]
	for _, m := range committed {
		alive = append(alive, m.Name)
		if c.epoch > 0 {
			// The §2.2.2 max-aggregation over the slice's own per-BS
			// series, via the same keyed reads settle uses — the observe
			// phase stays linear in the slice's epoch samples too.
			peak, ok := 0.0, false
			for b := range m.Reserved {
				c.samples = c.cfg.Store.AppendElementEpochSamples(c.samples[:0], m.Name, monitor.LoadMetric, monitor.BSElement(b), c.epoch-1)
				for _, sm := range c.samples {
					if !ok || sm.Value > peak {
						peak, ok = sm.Value, true
					}
				}
			}
			if ok {
				peaks = append(peaks, ObservedPeak{Name: m.Name, Peak: peak})
			}
		}
	}
	c.alive, c.peaks = alive, peaks
	// Logged every step, empty or not: the alive set drives tracker GC
	// below, and GC must replay exactly (departed names may be reused).
	if c.cfg.Log != nil {
		if err := c.cfg.Log.AppendObserve(c.cfg.Domain, c.epoch, alive, peaks); err != nil {
			return nil, fmt.Errorf("reopt: wal append observe: %w", err)
		}
	}
	c.applyObserve(alive, peaks)
	rep.Observed = len(peaks)
	ups := c.ups[:0]
	if reoptNow {
		for _, m := range committed {
			lh, sg := forecast.View(c.trackers[m.Name], m.SLA.RateMbps, 0)
			ups = append(ups, admission.ForecastUpdate{Name: m.Name, LambdaHat: lh, Sigma: sg})
		}
	}
	c.ups = ups
	if len(ups) > 0 {
		if err := c.cfg.Engine.UpdateForecasts(c.cfg.Domain, ups); err != nil {
			return nil, err
		}
		rep.Updated = len(ups)
	}

	round, err := c.cfg.Engine.DecideRound(c.cfg.Domain)
	if err != nil {
		return nil, err
	}
	rep.Round = round
	if c.cfg.OnRound != nil {
		if err := c.cfg.OnRound(round); err != nil {
			return nil, fmt.Errorf("reopt: round hook at epoch %d: %w", c.epoch, err)
		}
	}

	// Snapshot what is now in force — it serves the epoch that starts now
	// and settles on the next step, surviving any expiry in between.
	after, err := c.cfg.Engine.CommittedDetail(c.cfg.Domain)
	if err != nil {
		return nil, err
	}
	for _, m := range after {
		if prev, was := c.prevTotals[m.Name]; was && math.Abs(totalOf(m.Reserved)-prev) > rescaleTol {
			rep.Rescaled++
		}
	}
	c.prev = &inForce{epoch: c.epoch, members: after}

	// 4. advance.
	expired, err := c.cfg.Engine.Advance(c.cfg.Domain)
	if err != nil {
		return nil, err
	}
	rep.Expired = expired
	c.epoch++

	// 5. snapshot, at the step boundary: the WAL layer persists the state
	// and compacts the log behind it. Running after the epoch advance means
	// a snapshot always captures a whole number of completed steps.
	if c.cfg.Snapshot != nil && c.cfg.SnapshotEvery > 0 && c.epoch%c.cfg.SnapshotEvery == 0 {
		if err := c.cfg.Snapshot(c.exportStateLocked()); err != nil {
			return nil, fmt.Errorf("reopt: snapshot at epoch %d: %w", c.epoch, err)
		}
	}
	return rep, nil
}

// applyObserve is the tracker side of the observe phase, shared verbatim by
// the live step and WAL replay: ensure every alive slice has a tracker,
// feed the observed peaks, and garbage-collect trackers of departed slices
// (names may be reused).
func (c *Controller) applyObserve(alive []string, peaks []ObservedPeak) {
	clear(c.aliveSet)
	for _, n := range alive {
		c.aliveSet[n] = true
		if c.trackers[n] == nil {
			c.trackers[n] = forecast.NewAdaptive(forecast.Alpha, forecast.Beta, forecast.Gamma, c.cfg.HWPeriod)
		}
	}
	for _, p := range peaks {
		if tr := c.trackers[p.Name]; tr != nil {
			tr.Observe(p.Peak)
		}
	}
	for name := range c.trackers {
		if !c.aliveSet[name] {
			delete(c.trackers, name)
		}
	}
}

func totalOf(z []float64) float64 {
	t := 0.0
	for _, v := range z {
		t += v
	}
	return t
}
