package reopt

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/admission"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// World plays the outside of one compiled scenario against a Controller's
// closed loop: the tenants and their offers, the capacity-event schedule,
// and the data plane's per-(slice, BS) traffic, drawn from the same seeded
// sim.NewGenerator processes the simulator measures. It holds what survives
// a control-plane crash outside the monitoring pipeline — the re-offers and
// the generators' streams — so one World can outlive the process it drives.
// A World drives one controller at a time and is not safe for concurrent
// use.
type World struct {
	cfg sim.Config
	// sched is the compiled capacity schedule; schedErr, when set, is its
	// validation error, which Play returns.
	sched    *topology.Schedule
	schedErr error
	// held are the offers rejected last epoch, re-offered this epoch when
	// the scenario says so (sim.Config.ReofferPending).
	held []sim.SliceSpec
	gens map[string][]traffic.Generator
}

// NewWorld returns the world of a compiled scenario, before its first
// epoch. A zero SamplesPerEpoch takes sim.Run's default of 12.
func NewWorld(cfg sim.Config) *World {
	if cfg.SamplesPerEpoch == 0 {
		cfg.SamplesPerEpoch = 12
	}
	sched, err := topology.NewSchedule(cfg.Net, cfg.Events)
	return &World{cfg: cfg, sched: sched, schedErr: err, gens: map[string][]traffic.Generator{}}
}

// Played is one epoch as the World played it: the controller's step and
// the fate of the epoch's offers.
type Played struct {
	*StepReport
	// Admitted counts offers admitted by the epoch's round. Rejected counts
	// the rejections that are final: under ReofferPending a rejection is
	// held for the next epoch instead, except in the scenario's last epoch.
	// Shed counts offers the engine refused at intake (ErrOverloaded);
	// they are not offered again.
	Admitted, Rejected, Shed int
}

// Play runs the controller's current epoch: it delivers the epoch's
// capacity events, submits the epoch's arrivals and the held re-offers
// concurrently, runs Controller.Step, resolves the tickets, and plays the
// epoch's traffic into the controller's store. Slices expiring with the
// epoch still served it, so their generators retire only after their
// samples are in. As in sim.Run, a BS the schedule has dark serves
// nothing: its samples are still drawn — a generator's stream must not
// depend on outage timing — but recorded as zero load.
func (w *World) Play(c *Controller) (*Played, error) {
	eng, dom, epoch := c.cfg.Engine, c.cfg.Domain, c.Epoch()
	if w.schedErr != nil {
		return nil, w.schedErr
	}
	if epoch >= w.cfg.Epochs {
		return nil, fmt.Errorf("reopt: the scenario has %d epochs; the controller is at epoch %d", w.cfg.Epochs, epoch)
	}

	// The simulator's schedule sorts by epoch stably, so one epoch's events
	// apply in declared order.
	var fire []topology.Event
	for _, ev := range w.cfg.Events {
		if ev.Epoch == epoch {
			fire = append(fire, ev)
		}
	}
	if err := eng.ApplyTopology(dom, fire); err != nil {
		return nil, err
	}

	offers := w.held
	w.held = nil
	for _, sp := range w.cfg.Slices {
		if sp.ArrivalEpoch == epoch {
			offers = append(offers, sp)
		}
	}
	// Concurrent submission: the round's canonical order must erase the
	// interleave.
	tks := make([]*admission.Ticket, len(offers))
	errs := make([]error, len(offers))
	var wg sync.WaitGroup
	for i := range offers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := offers[i]
			sla := slice.SLA{Template: sp.Template, MeanMbps: sp.MeanMbps, Duration: sp.Duration}.
				WithPenaltyFactor(sp.PenaltyFactor)
			tks[i], errs[i] = eng.Submit(admission.Request{Domain: dom, Name: sp.Name, SLA: sla})
		}(i)
	}
	wg.Wait()
	p := &Played{}
	for i, err := range errs {
		switch {
		case errors.Is(err, admission.ErrOverloaded):
			p.Shed++
		case err != nil:
			return nil, fmt.Errorf("reopt: offer %s at epoch %d: %w", offers[i].Name, epoch, err)
		}
	}

	rep, err := c.Step()
	if err != nil {
		return nil, err
	}
	p.StepReport = rep

	reoffer := w.cfg.ReofferPending && epoch+1 < w.cfg.Epochs
	for i, tk := range tks {
		if tk == nil {
			continue // shed
		}
		out, ok := tk.Outcome()
		if !ok {
			return nil, fmt.Errorf("reopt: offer %s undecided after the epoch-%d round", offers[i].Name, epoch)
		}
		switch {
		case out.Admitted:
			p.Admitted++
			gs := make([]traffic.Generator, w.cfg.Net.NumBS())
			for b := range gs {
				gs[b] = sim.NewGenerator(w.cfg, offers[i], b)
			}
			w.gens[offers[i].Name] = gs
		case reoffer:
			w.held = append(w.held, offers[i])
		default:
			p.Rejected++
		}
	}

	names := make([]string, 0, len(w.gens))
	for n := range w.gens {
		names = append(names, n)
	}
	sort.Strings(names)
	up := w.sched.BSUpMask(epoch)
	for _, name := range names {
		for b, g := range w.gens[name] {
			for theta := 0; theta < w.cfg.SamplesPerEpoch; theta++ {
				sm := monitor.Sample{
					Slice: name, Metric: monitor.LoadMetric, Element: monitor.BSElement(b),
					Epoch: epoch, Theta: theta, Value: g.Sample(epoch, theta),
				}
				if !up[b] {
					sm.Value = 0
				}
				c.cfg.Store.Add(sm)
			}
		}
	}
	for _, name := range rep.Expired {
		delete(w.gens, name)
	}
	return p, nil
}
