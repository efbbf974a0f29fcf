package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

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

// loopDomain drives one operator domain's compiled scenario through the full
// closed loop, the way cmd/loadgen -mode closed does: arrivals are submitted
// at their epoch, a reopt.Controller steps the epoch (settle, observe,
// forecast, re-solve, advance), and the scenario's actual per-BS traffic is
// played into the monitoring store the controller reads. Unlike loadgen it
// also delivers the scenario's topology events at their epoch boundaries.
type loopDomain struct {
	p      *pass
	driver int // watchdog slot of the goroutine driving this domain
	eng    *admission.Engine
	name   string
	cfg    sim.Config
	// redecide books every committed slice's re-decided reservation as a
	// decision (the drift-only workload, where nothing else is decided).
	redecide bool

	ctrl    *reopt.Controller
	store   *monitor.Store
	events  []topology.Event // epoch-sorted
	specOf  map[string]sim.SliceSpec
	gens    map[string][]traffic.Generator
	pending []offered
	epoch   int

	visible time.Time // when the current step's round outcome became visible (OnRound)
	fp      fingerprint
}

// loopRetainEpochs sizes the monitoring store's per-series retention. The
// controller reads one epoch back; with the store's default retention (4096
// samples, 341 epochs of history at 12 samples per epoch) every settle and
// observe scans that whole history per slice per BS, and a drift round spends
// four fifths of its time there instead of in the solver (README.md,
// "Findings"). A short window keeps these workloads about the solver.
const loopRetainEpochs = 4

// offered is one submitted request awaiting its decision.
type offered struct {
	req  admission.Request
	tk   *admission.Ticket
	sent time.Time
}

// compile resolves an archetype under one unit seed, with the benchmark's
// adjustments applied (strip removes the fault script; epochs overrides the
// horizon when positive).
func compile(archetype string, seed int64, strip bool, epochs int) (sim.Config, scenario.Spec, error) {
	spec, err := scenario.ByName(archetype)
	if err != nil {
		return sim.Config{}, spec, err
	}
	if strip {
		spec.Faults = scenario.Faults{}
	}
	if epochs > 0 {
		spec.Epochs = epochs
	}
	cfg, err := spec.Compile(seed)
	if err != nil {
		return sim.Config{}, spec, err
	}
	if cfg.SamplesPerEpoch == 0 {
		cfg.SamplesPerEpoch = 12 // the benchmark plays the data plane, so the sim default applies here
	}
	return cfg, spec, nil
}

// newLoopDomain binds a controller to an engine domain that was already added.
func newLoopDomain(p *pass, driver int, eng *admission.Engine, name string, cfg sim.Config) (*loopDomain, error) {
	d := &loopDomain{
		p: p, driver: driver, eng: eng, name: name, cfg: cfg,
		store:  monitor.NewStore(loopRetainEpochs * cfg.SamplesPerEpoch),
		specOf: map[string]sim.SliceSpec{},
		gens:   map[string][]traffic.Generator{},
	}
	sched, err := topology.NewSchedule(cfg.Net, cfg.Events)
	if err != nil {
		return nil, err
	}
	d.events = sched.Events()
	for _, sp := range cfg.Slices {
		d.specOf[sp.Name] = sp
	}
	d.ctrl, err = reopt.New(reopt.Config{
		Engine: eng, Domain: name, Store: d.store, HWPeriod: cfg.HWPeriod,
		OnRound: func(*admission.Round) error { d.visible = time.Now(); return nil },
	})
	return d, err
}

// lastArrival is the epoch of the scenario's final arrival.
func (d *loopDomain) lastArrival() int {
	last := 0
	for _, sp := range d.cfg.Slices {
		if sp.ArrivalEpoch > last {
			last = sp.ArrivalEpoch
		}
	}
	return last
}

// step runs one epoch of the domain. When timed, the round and the decisions
// it resolved are booked; the fingerprint is extended either way.
func (d *loopDomain) step(timed bool) error {
	p := d.p
	start := time.Now()
	p.opStart(d.driver)
	defer p.opEnd(d.driver)

	var fire []topology.Event
	for _, ev := range d.events {
		if ev.Epoch == d.epoch {
			fire = append(fire, ev)
		}
	}
	var topoStart, topoEnd time.Time
	if len(fire) > 0 {
		topoStart = time.Now()
		if err := d.eng.ApplyTopology(d.name, fire); err != nil {
			return err
		}
		topoEnd = time.Now()
	}

	for _, sp := range d.cfg.Slices {
		if sp.ArrivalEpoch == d.epoch {
			sla := slice.SLA{Template: sp.Template, MeanMbps: sp.MeanMbps, Duration: sp.Duration}.
				WithPenaltyFactor(sp.PenaltyFactor)
			d.submit(admission.Request{Domain: d.name, Name: sp.Name, SLA: sla}, timed)
		}
	}

	stepStart := time.Now()
	rep, err := d.ctrl.Step()
	end := time.Now()
	if timed {
		p.round(end.Sub(start), err)
	}
	if err != nil {
		return fmt.Errorf("%s epoch %d: %w", d.name, d.epoch, err)
	}
	if timed && p.traced() {
		id := roundID(p.w.name, d.name, rep.Round.Seq)
		p.tr.span("round", id, "", start, end)
		if len(fire) > 0 {
			p.tr.span("admission.apply_topology", id, "round", topoStart, topoEnd)
			p.obs("admission.apply_topology_ms", ms(topoEnd.Sub(topoStart)))
		}
		p.obs("reopt.step_ms", ms(end.Sub(start)-topoEnd.Sub(topoStart)))
		p.add("reopt.rescaled", float64(rep.Rescaled))
		p.add("reopt.steps", 1)
	}
	d.fp.line("%d|%s|%s", d.epoch, strings.Join(rep.Round.Admitted, ","), strings.Join(rep.Round.Rejected, ","))

	if timed && d.redecide {
		for range rep.Round.Names {
			p.decision(d.visible.Sub(start), nil)
		}
	}

	// Harvest: what this round decided became visible at OnRound.
	still := d.pending[:0]
	for _, o := range d.pending {
		out, ok := o.tk.Outcome()
		if !ok {
			if terr := o.tk.Err(); terr != nil {
				if timed {
					p.decision(0, terr)
				}
				continue
			}
			still = append(still, o)
			continue
		}
		if timed {
			p.decision(d.visible.Sub(o.sent), nil)
			if p.traced() {
				id := roundID(p.w.name, d.name, out.Round) + "/" + out.Name
				p.tr.span("decision", id, "", o.sent, d.visible)
				p.tr.span("admission.queue_wait", id, "decision", o.sent, stepStart)
				p.obs("admission.queue_wait_ms", ms(stepStart.Sub(o.sent)))
			}
		}
		if out.Admitted {
			// An admitted slice starts generating traffic from its own seeds.
			// (A rejection is final: the archetypes' re-offering is off, as in
			// loadgen's default — it is where the pathological batches live.)
			sp := d.specOf[out.Name]
			gs := make([]traffic.Generator, d.cfg.Net.NumBS())
			for b := range gs {
				gs[b] = sim.NewGenerator(d.cfg, sp, b)
			}
			d.gens[out.Name] = gs
		}
	}
	d.pending = still

	// Play the data plane: this epoch's measured traffic, per BS. A slice
	// expiring with this epoch still served it, so its generators are torn
	// down only after the traffic played. (Each series is its own stream, so
	// the map's iteration order changes nothing.)
	for name, gs := range d.gens {
		for b, g := range gs {
			for theta := 0; theta < d.cfg.SamplesPerEpoch; theta++ {
				d.store.Add(monitor.Sample{
					Slice: name, Metric: monitor.LoadMetric, Element: monitor.BSElement(b),
					Epoch: d.epoch, Theta: theta, Value: g.Sample(d.epoch, theta),
				})
			}
		}
	}
	for _, name := range rep.Expired {
		delete(d.gens, name)
	}
	d.epoch++
	return nil
}

func (d *loopDomain) submit(req admission.Request, timed bool) {
	sent := time.Now()
	tk, err := d.eng.Submit(req)
	if d.p.traced() && timed {
		d.p.obs("admission.submit_us", us(time.Since(sent)))
	}
	if err != nil {
		if timed {
			d.p.fail("submit "+req.Name, err)
		}
		return
	}
	d.pending = append(d.pending, offered{req: req, tk: tk, sent: sent})
}

// finish folds the domain's yield account into its fingerprint and returns it.
func (d *loopDomain) finish() string {
	d.fp.line("%s", summaryLine(d.ctrl.Ledger().Snapshot()))
	return d.fp.String()
}

// summaryLine renders the yield account with every float at full precision:
// the repo pins ledgers bit for bit, so the fingerprint may too.
func summaryLine(y yield.Summary) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return strings.Join([]string{g(y.Realized), g(y.Reward), g(y.Penalty), g(y.Expected),
		strconv.Itoa(y.ExpectedRounds), strconv.Itoa(y.Entries), strconv.Itoa(y.Violated), strconv.Itoa(y.Samples)}, "|")
}

// probeEngineCalls times the engine entry points the controller calls on the
// workload's behalf — UpdateForecasts and CommittedDetail cannot be timed
// from outside a Step — by re-installing each committed slice's current
// forecast view, which changes nothing. Traced pass only, off the clock.
func (d *loopDomain) probeEngineCalls() {
	if !d.p.traced() {
		return
	}
	det, err := d.eng.CommittedDetail(d.name)
	if err != nil || len(det) == 0 {
		return
	}
	ups := make([]admission.ForecastUpdate, len(det))
	for i, m := range det {
		ups[i] = admission.ForecastUpdate{Name: m.Name, LambdaHat: m.LambdaHat, Sigma: m.Sigma}
	}
	for i := 0; i < 32; i++ {
		t := time.Now()
		if err := d.eng.UpdateForecasts(d.name, ups); err != nil {
			return
		}
		d.p.obs("admission.update_forecasts_us", us(time.Since(t)))
	}
}
