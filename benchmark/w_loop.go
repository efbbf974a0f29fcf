package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/admission"
)

// The three solver-bound workloads. All drive scenario archetypes through the
// full closed loop (loop.go) with no WAL, no cluster and no REST layer, so
// the only thing they measure is how a round is solved: warm (steady-drift),
// cold and node-count-bound (arrival-churn), cold and LP-size-bound
// (metro-cold).

// A workload's set-up is performed at least setupRepeats times, and until the
// set-ups have taken setupMinTotal in all (at most setupMaxRepeats times): the
// reported setup_s is the median, and a sub-millisecond set-up needs many
// repetitions for that median to hold still. discard must release what a
// set-up holds (directories, listeners), or later repetitions measure the
// debris of earlier ones.
const (
	setupRepeats    = 3
	setupMaxRepeats = 1000
	setupMinTotal   = 300 * time.Millisecond
)

// measureSetup times build over and over, hands every result but the last to
// discard, and returns the last.
func measureSetup[T any](p *pass, build func(i int) (T, error), discard func(T)) (T, error) {
	var cur T
	total := time.Duration(0)
	for i := 0; i < setupMaxRepeats && (i < setupRepeats || total < setupMinTotal); i++ {
		if i > 0 {
			discard(cur)
		}
		t := time.Now()
		var err error
		if cur, err = build(i); err != nil {
			return cur, err
		}
		d := time.Since(t)
		p.addSetup(d)
		total += d
	}
	return cur, nil
}

// loopUnit is one engine with its closed-loop domains.
type loopUnit struct {
	p       *pass
	eng     *admission.Engine
	exec    *tracedExec // traced pass only
	mu      sync.Mutex
	added   int // domains named so far (two drivers add concurrently)
	domains []*loopDomain
}

// domainPlan names one domain of a unit before it is built.
type domainPlan struct {
	archetype string
	seed      int64
	strip     bool // drop the archetype's fault script
	epochs    int  // horizon override (0 = the archetype's)
	driver    int
	redecide  bool
}

// newLoopUnit starts an engine; domains join through add.
func newLoopUnit(p *pass, shards int) (*loopUnit, error) {
	u := &loopUnit{p: p, eng: admission.New(admission.Config{Shards: shards})}
	if p.traced() {
		u.exec = localExec(p)
	}
	return u, u.eng.Start()
}

// add compiles the plan, adds its engine domain and binds a controller.
func (u *loopUnit) add(pl domainPlan) (*loopDomain, error) {
	cfg, spec, err := compile(pl.archetype, pl.seed, pl.strip, pl.epochs)
	if err != nil {
		return nil, err
	}
	u.mu.Lock()
	name := fmt.Sprintf("%s-%d-s%d", pl.archetype, u.added, pl.seed)
	u.added++
	u.mu.Unlock()
	dc := admission.DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: spec.Algorithm}
	if u.exec != nil {
		if err := u.exec.register(name, dc); err != nil {
			return nil, err
		}
		dc.Executor = u.exec
	}
	t := time.Now()
	if err := u.eng.AddDomain(name, dc); err != nil {
		return nil, err
	}
	u.p.obs("admission.add_domain_ms", ms(time.Since(t)))
	d, err := newLoopDomain(u.p, pl.driver, u.eng, name, cfg)
	if err != nil {
		return nil, err
	}
	d.redecide = pl.redecide
	u.mu.Lock()
	u.domains = append(u.domains, d)
	u.mu.Unlock()
	return d, nil
}

// close stops the engine and hands the traced pass's recorded solver inputs
// to instance replay.
func (u *loopUnit) close() {
	u.eng.Stop()
	if u.exec != nil {
		u.p.mu.Lock()
		u.p.replay = append(u.p.replay, u.exec.recorded())
		u.p.mu.Unlock()
	}
}

// fingerprint closes every domain's account and folds them in domain order.
func (u *loopUnit) fingerprint() string {
	var f fingerprint
	for _, d := range u.domains {
		f.line("%s=%s", d.name, d.finish())
	}
	return f.String()
}

// overBudget is the safety valve on the fixed unit counts: a pass that has
// run a quarter over its nominal length stops at the next unit boundary (and
// says so) rather than running the driver's time limit out on a slower box.
func (p *pass) overBudget() bool {
	if time.Since(p.began).Seconds() > 1.25*p.seconds+2 {
		p.mu.Lock()
		p.counts["truncated"] = 1
		p.mu.Unlock()
		return true
	}
	return false
}

// unitsFor scales a workload's unit count (sized for a 10 s run on the
// reference box) to --seconds.
func unitsFor(per10s int, seconds float64) int {
	n := int(float64(per10s)*seconds/10 + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// --- steady-drift ---------------------------------------------------------

const (
	driftEpochsPerUnit = 50
	driftUnitsPer10s   = 120 // × 50 epochs × 4 domains = 24,000 drift rounds
)

var driftArchetypes = []string{"heavy-tail", "handover", "heavy-tail", "handover"}

func runSteadyDrift(p *pass) error {
	// Set-up: engine, domains, controllers, and the warm-up that takes every
	// domain past its last arrival.
	u, err := measureSetup(p, func(int) (*loopUnit, error) {
		u, err := newLoopUnit(p, 1)
		if err != nil {
			return nil, err
		}
		for i, a := range driftArchetypes {
			// The horizon is effectively unbounded: the arrival process ends
			// within the first epochs and every slice lives for the whole
			// run, so after warm-up only forecasts move. In this workload
			// nothing is admitted while the clock runs; what a round decides
			// is every committed slice's reservation, so each re-decided
			// reservation counts as a decision (redecide).
			d, err := u.add(domainPlan{archetype: a, seed: unitSeed(a+"/stripped", p.seed, 0, i, 1),
				strip: true, epochs: 1 << 20, redecide: true})
			if err != nil {
				return nil, err
			}
			for warm := d.lastArrival() + 8; d.epoch <= warm; {
				if err := d.step(false); err != nil {
					return nil, err
				}
			}
		}
		return u, nil
	}, func(u *loopUnit) { u.eng.Stop() })
	if err != nil {
		return err
	}
	defer u.close()

	p.beginTimed()
	for i, n := 0, unitsFor(driftUnitsPer10s, p.seconds); i < n && !p.overBudget(); i++ {
		for e := 0; e < driftEpochsPerUnit; e++ {
			for _, d := range u.domains {
				if err := d.step(true); err != nil {
					return err
				}
			}
		}
		var f fingerprint
		for _, d := range u.domains {
			f.line("%s=%s|%s", d.name, d.fp.String(), summaryLine(d.ctrl.Ledger().Snapshot()))
		}
		p.unit(i, f.String())
	}
	p.endTimed()
	for _, d := range u.domains {
		d.probeEngineCalls()
	}
	return nil
}

// --- arrival-churn --------------------------------------------------------

// A repetition's units are drawn by cost class (pools.go), one class per
// repetition, so a full-size pass holds every class of every pool once.
const churnRepsPer10s = 28

// churnStrata is the number of repetitions of a full-size pass.
var churnStrata = unitsFor(churnRepsPer10s, runSeconds)

// churnDomains is one repetition: the four event-heavy archetypes, plus a
// second churn draw and a heavy-tail domain. The last two add Poisson
// single arrivals only and cost next to nothing; without them the decision
// population is half single arrivals (2–5 ms) and half spike-batch members
// (15–70 ms), the median decision sits on the knee between the two, and
// binomial noise alone moves it by ±15 %.
var churnDomains = []struct {
	archetype, pool string
	strip           bool
	classShift      int // offset into the cost classes, so two draws of one pool differ
}{
	{"flash-crowd", "flash-crowd", false, 0},
	{"flash-drift", "flash-drift", false, 0},
	{"churn", "churn", false, 0},
	{"degradation", "degradation", false, 0},
	{"churn", "churn", false, churnStrata / 2},
	{"heavy-tail", "heavy-tail/stripped", true, 0},
}

// drive runs the unit's domains to the end of their horizons: each of the
// drivers goroutines takes the domains assigned to it and alternates their
// epochs.
func (u *loopUnit) drive(drivers int) error {
	var wg sync.WaitGroup
	errs := make([]error, drivers)
	for k := 0; k < drivers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for live := true; live; {
				live = false
				for _, d := range u.domains {
					if d.driver != k || d.epoch >= d.cfg.Epochs {
						continue
					}
					live = true
					if errs[k] = d.step(true); errs[k] != nil {
						return
					}
				}
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func runArrivalChurn(p *pass) error {
	build := func(r int) (*loopUnit, error) {
		u, err := newLoopUnit(p, 2)
		if err != nil {
			return nil, err
		}
		for i, cd := range churnDomains {
			plan := domainPlan{archetype: cd.archetype, seed: unitSeed(cd.pool, p.seed, r+cd.classShift, i, churnStrata), strip: cd.strip, driver: i % 2}
			if _, err := u.add(plan); err != nil {
				u.close()
				return nil, err
			}
		}
		return u, nil
	}
	// Set-up is per repetition (a fresh engine and its domains); it is measured
	// here on repetition 0's plan and again, untimed by setup_s, inside every
	// repetition.
	u, err := measureSetup(p, func(int) (*loopUnit, error) { return build(0) }, (*loopUnit).close)
	if err != nil {
		return err
	}
	u.close()

	p.beginTimed()
	defer p.endTimed()
	for r, n := 0, unitsFor(churnRepsPer10s, p.seconds); r < n && !p.overBudget(); r++ {
		u, err := build(r)
		if err != nil {
			return err
		}
		if err = u.drive(2); err == nil {
			p.unit(r, u.fingerprint())
		}
		u.close()
		if err != nil {
			return err
		}
	}
	return nil
}

// --- metro-cold -----------------------------------------------------------

const (
	metroPodsPer10s = 20
	metroEpochs     = 17 // one cold batch round, then 16 drift epochs
)

func runMetroCold(p *pass) error {
	// One engine with two shards; a pod-run adds the pod as a fresh domain (a
	// cold pod) and runs it: the batch round, then the drift epochs.
	pod := func(r, driver int) domainPlan {
		return domainPlan{archetype: "metro", seed: unitSeed("metro", p.seed, r, 0, unitsFor(metroPodsPer10s, runSeconds)), epochs: metroEpochs, driver: driver}
	}
	// Set-up: the engine and one pod's domain (topology, path sets,
	// prefilter, controller). Every later pod pays the domain part again
	// inside the run.
	u, err := measureSetup(p, func(int) (*loopUnit, error) {
		u, err := newLoopUnit(p, 2)
		if err == nil {
			_, err = u.add(pod(0, 0))
		}
		return u, err
	}, (*loopUnit).close)
	if err != nil {
		return err
	}
	u.close()
	if u, err = newLoopUnit(p, 2); err != nil {
		return err
	}
	defer u.close()
	// Pods run two at a time, in lockstep (a pair is one unit): both drivers
	// add their pod and run its cold batch round, then both run their drift
	// epochs. Left to
	// drift apart, the drivers would decide by their relative phase whether a
	// pod's warm rounds (≈ 0.5 ms) run beside the neighbour's cold solve
	// (117 MB allocated) or beside its warm rounds, and round_p50_ms would
	// swing by 40 % from pass to pass on nothing but that.
	pods := unitsFor(metroPodsPer10s, p.seconds)
	errs := make([]error, 2)
	both := func(fn func(k int) error) {
		var wg sync.WaitGroup
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				if errs[k] == nil {
					errs[k] = fn(k)
				}
			}(k)
		}
		wg.Wait()
	}
	p.beginTimed()
	for r := 0; r < pods && !p.overBudget() && errs[0] == nil && errs[1] == nil; r += 2 {
		var doms [2]*loopDomain
		both(func(k int) error {
			if r+k >= pods {
				return nil
			}
			d, err := u.add(pod(r+k, k))
			if err != nil {
				return err
			}
			doms[k] = d
			return d.step(true) // the cold batch round
		})
		both(func(k int) error {
			d := doms[k]
			if d == nil {
				return nil
			}
			for d.epoch < metroEpochs {
				if err := d.step(true); err != nil {
					return err
				}
			}
			return nil
		})
		if errs[0] == nil && errs[1] == nil {
			var f fingerprint
			for _, d := range doms {
				if d != nil {
					f.line("%s", d.finish())
				}
			}
			p.unit(r/2, f.String())
		}
	}
	p.endTimed()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
