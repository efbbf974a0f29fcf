// Command loadgen drives the online admission engine at load-generator
// scale: it expands a scenario archetype's arrival process (Poisson,
// bursty, flash-crowd, batch) into per-epoch request streams for D
// independent operator domains, submits them concurrently, runs one
// admission round per (domain, epoch), and reports end-to-end throughput
// plus the engine's metrics snapshot.
//
// Usage:
//
//	loadgen [-scenario flash-crowd] [-seed 42] [-domains 8] [-shards 0]
//	        [-epochs 0] [-tenants 0] [-algo ""] [-queue 1024]
//	        [-reoffer] [-mode drift] [-trace demand.json]
//	        [-cluster 127.0.0.1:9090] [-cluster-workers 2]
//
// -cluster turns loadgen into a cluster coordinator: it listens on the
// given TCP address, waits for -cluster-workers ovnes-worker processes,
// and dispatches every round solve to them (internal/cluster). The
// printed tables are bit-identical to the in-process run — the cluster
// determinism pin — so diffing the two outputs is a live end-to-end check.
//
// -trace replays a recorded demand file (JSON/CSV, see internal/traffic)
// as every class's load shape, so the closed/static modes can be driven by
// real measured traffic instead of the archetype's synthetic shapes.
//
// The archetype's capacity events (outage, degradation, churn, handover)
// reach each domain's live network at their epoch boundaries, before that
// epoch's round, in every mode.
//
// -mode selects the forecast feed:
//
//	drift   deterministic synthetic (λ̂, σ̂) oscillation — the warm-rebind
//	        stress mode loadgen has always run (no measured traffic);
//	closed  the full closed loop (internal/reopt): each domain draws the
//	        scenario's actual per-BS traffic into a monitoring store, the
//	        controller feeds forecasters, rescales reservations online and
//	        settles realized yield, reported per domain;
//	static  the closed-loop machinery with forecast-driven reoptimization
//	        disabled: the overbooking-free baseline to compare `closed`
//	        against (same traffic, same seeds — the yield delta is the
//	        paper's headline number, measured live).
//
// -shards 0 means one shard per CPU. Identical (scenario, seed, domains,
// mode) invocations make identical decisions at any shard count — the
// engine's determinism contract — so loadgen doubles as a quick
// cross-machine consistency check: compare the printed per-domain admit
// counts (and, in closed/static modes, the realized yield).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/reopt"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/yield"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")

	var (
		name    = flag.String("scenario", "flash-crowd", "archetype driving the arrival process (see `scenario list`)")
		seed    = flag.Int64("seed", 42, "base seed; domain d uses seed+d")
		domains = flag.Int("domains", 8, "independent operator domains (each with its own warm session)")
		shards  = flag.Int("shards", 0, "solver workers (0 = one per CPU)")
		epochs  = flag.Int("epochs", 0, "override the archetype's epoch count")
		tenants = flag.Int("tenants", 0, "override the archetype's tenant count per domain")
		algo    = flag.String("algo", "", "override the solver: direct | benders | kac | no-overbooking")
		queue   = flag.Int("queue", 1024, "bounded intake depth (requests)")
		reoffer = flag.Bool("reoffer", false, "re-offer rejected requests every epoch")
		mode    = flag.String("mode", "drift", "forecast feed: drift | closed | static")
		trace   = flag.String("trace", "", "replay a recorded demand file (JSON/CSV) as every class's load")

		clAddr    = flag.String("cluster", "", "listen on this TCP address for ovnes-worker processes and dispatch round solves to them (empty = solve in-process)")
		clWorkers = flag.Int("cluster-workers", 1, "with -cluster: wait for this many workers before driving load")
	)
	flag.Parse()

	switch *mode {
	case "drift", "closed", "static":
	default:
		log.Fatalf("unknown -mode %q (want drift, closed or static)", *mode)
	}

	spec, err := scenario.ByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	if *epochs > 0 {
		spec.Epochs = *epochs
	}
	if *tenants > 0 {
		spec.Tenants = *tenants
	}
	if *algo != "" {
		spec.Algorithm = *algo
	}
	if *trace != "" {
		data, err := os.ReadFile(*trace)
		if err != nil {
			log.Fatal(err)
		}
		tf, err := traffic.DecodeTrace(data)
		if err != nil {
			log.Fatal(err)
		}
		spec = scenario.WithTrace(spec, tf)
	}
	if *shards <= 0 {
		*shards = runtime.NumCPU()
	}
	// An archetype that declares its own deployment width (the metro
	// archetype's pod count) sets the domain fan-out unless -domains was
	// given explicitly.
	domainsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "domains" {
			domainsSet = true
		}
	})
	if !domainsSet && spec.Domains > 0 {
		*domains = spec.Domains
	}

	// Distributed mode: a cluster coordinator accepts worker processes and
	// becomes every domain's Executor. Decisions are bit-identical to the
	// in-process run — that is the engine's cross-network determinism pin —
	// so -cluster changes throughput topology, never the printed tables.
	var exec admission.Executor
	if *clAddr != "" {
		// slog.Default writes through the log package, so the
		// coordinator's lines carry loadgen's prefix like every other one.
		coord := cluster.NewCoordinator(cluster.CoordinatorOptions{Log: slog.Default()})
		defer coord.Close()
		addr, err := coord.Listen(*clAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("cluster coordinator on tcp://%s, waiting for %d worker(s) (ovnes-worker -connect %s)",
			addr, *clWorkers, addr)
		exec = coord
	}

	eng := admission.New(admission.Config{Shards: *shards, QueueDepth: *queue})
	// Each domain is the same archetype under its own seed: same workload
	// family, decorrelated arrivals — D operators living on one engine.
	cfgs := make([]sim.Config, *domains)
	for d := 0; d < *domains; d++ {
		cfg, err := spec.Compile(*seed + int64(d))
		if err != nil {
			log.Fatal(err)
		}
		cfgs[d] = cfg
		dc := admission.DomainConfig{
			Net:       cfg.Net,
			KPaths:    cfg.KPaths,
			Algorithm: spec.Algorithm,
			Executor:  exec,
		}
		if coord, ok := exec.(*cluster.Coordinator); ok {
			if err := coord.RegisterDomain(domName(d), dc); err != nil {
				log.Fatal(err)
			}
		}
		if err := eng.AddDomain(domName(d), dc); err != nil {
			log.Fatal(err)
		}
	}
	if coord, ok := exec.(*cluster.Coordinator); ok && *clWorkers > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if err := coord.WaitMembers(ctx, *clWorkers); err != nil {
			log.Fatal(err)
		}
		cancel()
		log.Printf("cluster ready: workers=%v", coord.Members())
	}
	if err := eng.Start(); err != nil {
		log.Fatal(err)
	}

	nEpochs := cfgs[0].Epochs
	log.Printf("scenario=%s domains=%d shards=%d epochs=%d tenants/domain=%d algo=%s",
		spec.Name, *domains, *shards, nEpochs, len(cfgs[0].Slices), spec.Algorithm)

	stats := make([]domStats, *domains)
	yields := make([]yield.Summary, *domains)
	start := time.Now()
	var wg sync.WaitGroup
	for d := 0; d < *domains; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			if *mode == "drift" {
				driveDomain(eng, domName(d), cfgs[d], *reoffer, &stats[d])
				return
			}
			yields[d] = driveDomainClosed(eng, domName(d), cfgs[d], *reoffer, *mode == "static", &stats[d])
		}(d)
	}
	wg.Wait()
	if err := eng.Drain(context.Background()); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	eng.Stop()

	m := eng.Metrics()
	if *mode == "drift" {
		fmt.Println("domain\tadmitted\trejected\tshed")
		for d := 0; d < *domains; d++ {
			fmt.Printf("%s\t%d\t%d\t%d\n", domName(d), stats[d].admitted, stats[d].rejected, stats[d].shed)
		}
	} else {
		fmt.Println("domain\tadmitted\trejected\tshed\trealized\treward\tpenalty\tviol_prob\trescaled")
		var tot yield.Summary
		for d := 0; d < *domains; d++ {
			y := yields[d]
			fmt.Printf("%s\t%d\t%d\t%d\t%.4g\t%.4g\t%.4g\t%.3g\t%d\n",
				domName(d), stats[d].admitted, stats[d].rejected, stats[d].shed,
				y.Realized, y.Reward, y.Penalty, y.ViolationProb, stats[d].rescaled)
			tot.Realized += y.Realized
			tot.Reward += y.Reward
			tot.Penalty += y.Penalty
		}
		fmt.Printf("# mode=%s total realized=%.6g (reward=%.6g penalty=%.6g) across %d domains\n",
			*mode, tot.Realized, tot.Reward, tot.Penalty, *domains)
	}
	decided := m.Admitted + m.Rejected + m.FastRejected // shed requests were never decided
	fmt.Printf("# decided %d requests in %v → %.0f req/s (admitted=%d rejected=%d fast_rejected=%d shed=%d)\n",
		decided, elapsed.Round(time.Millisecond),
		float64(decided)/elapsed.Seconds(),
		m.Admitted, m.Rejected, m.FastRejected, m.Shed)
	fmt.Printf("# rounds=%d mean_batch=%.2f latency_p50=%v latency_p99=%v\n",
		m.Rounds, m.MeanBatch, m.LatencyP50.Round(time.Microsecond), m.LatencyP99.Round(time.Microsecond))
}

func domName(d int) string { return fmt.Sprintf("op%d", d) }

// domStats is one domain's request accounting.
type domStats struct {
	admitted, rejected, shed, rescaled int
}

// driveDomainClosed replays one domain's arrival stream through the full
// closed loop: the scenario's actual traffic is drawn into a per-domain
// monitoring store, and a reopt.Controller settles yield, feeds the
// forecasters and rescales reservations each epoch (static=true freezes
// the forecasts — same rounds, no rescaling — for the baseline run).
// Returns the domain's realized-yield account.
func driveDomainClosed(eng *admission.Engine, dom string, cfg sim.Config, reoffer, static bool, st *domStats) yield.Summary {
	if cfg.SamplesPerEpoch == 0 {
		cfg.SamplesPerEpoch = 12 // loadgen plays the data plane, so the sim default is applied here
	}
	store := monitor.NewStore(0)
	reoptEvery := 1
	if static {
		reoptEvery = -1
	}
	ctrl, err := reopt.New(reopt.Config{
		Engine: eng, Domain: dom, Store: store,
		HWPeriod: cfg.HWPeriod, ReoptEvery: reoptEvery,
	})
	if err != nil {
		log.Fatal(err)
	}

	specOf := map[string]sim.SliceSpec{}
	for _, sp := range cfg.Slices {
		specOf[sp.Name] = sp
	}
	gens := map[string][]traffic.Generator{}
	var inflight []pendingReq
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		applyEpochEvents(eng, dom, cfg, epoch)
		inflight = submitAll(eng, epochOffers(dom, cfg, epoch), st, inflight)

		rep, err := ctrl.Step()
		if err != nil {
			log.Fatal(err)
		}
		st.rescaled += rep.Rescaled

		// Admitted slices start generating traffic from their own seeds.
		inflight = harvest(eng, inflight, reoffer, st, func(name string) {
			sp := specOf[name]
			gs := make([]traffic.Generator, cfg.Net.NumBS())
			for b := range gs {
				gs[b] = sim.NewGenerator(cfg, sp, b)
			}
			gens[name] = gs
		})

		// Play the data plane: this epoch's measured traffic, per BS. A
		// slice expiring with this epoch still served it (the controller's
		// in-force snapshot keeps it on the books until the next settle),
		// so its generators are torn down only after the traffic played.
		for name, gs := range gens {
			for b, g := range gs {
				for theta := 0; theta < cfg.SamplesPerEpoch; theta++ {
					store.Add(monitor.Sample{
						Slice: name, Metric: monitor.LoadMetric, Element: monitor.BSElement(b),
						Epoch: epoch, Theta: theta, Value: g.Sample(epoch, theta),
					})
				}
			}
		}
		for _, name := range rep.Expired {
			delete(gens, name)
		}
	}
	drainInflight(inflight, st)
	return ctrl.Ledger().Snapshot()
}

// pendingReq is one offered request and its in-flight decision ticket.
type pendingReq struct {
	req admission.Request
	tk  *admission.Ticket
}

// applyEpochEvents folds the scenario's capacity events of this epoch into
// the domain's live network, in the order the simulator's schedule applies
// them (its stable epoch sort keeps one epoch's events in declared order).
func applyEpochEvents(eng *admission.Engine, dom string, cfg sim.Config, epoch int) {
	var fire []topology.Event
	for _, ev := range cfg.Events {
		if ev.Epoch == epoch {
			fire = append(fire, ev)
		}
	}
	if err := eng.ApplyTopology(dom, fire); err != nil {
		log.Fatal(err)
	}
}

// epochOffers builds the epoch's arrival requests for one domain from the
// compiled scenario.
func epochOffers(dom string, cfg sim.Config, epoch int) []admission.Request {
	var offers []admission.Request
	for _, sp := range cfg.Slices {
		if sp.ArrivalEpoch != epoch {
			continue
		}
		sla := slice.SLA{Template: sp.Template, MeanMbps: sp.MeanMbps, Duration: sp.Duration}.
			WithPenaltyFactor(sp.PenaltyFactor)
		offers = append(offers, admission.Request{Domain: dom, Name: sp.Name, SLA: sla})
	}
	return offers
}

// submitAll offers the batch concurrently; shed requests (intake errors)
// are counted, accepted ones join the in-flight set.
func submitAll(eng *admission.Engine, offers []admission.Request, st *domStats, inflight []pendingReq) []pendingReq {
	tks := make([]*admission.Ticket, len(offers))
	var wg sync.WaitGroup
	for i := range offers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := eng.Submit(offers[i])
			if err != nil {
				return // shed (tks[i] stays nil, counted below)
			}
			tks[i] = tk
		}(i)
	}
	wg.Wait()
	for i := range offers {
		if tks[i] == nil {
			st.shed++
			continue
		}
		inflight = append(inflight, pendingReq{req: offers[i], tk: tks[i]})
	}
	return inflight
}

// harvest scans the in-flight set after a round: admissions are counted
// (and handed to onAdmit), rejections re-offered or counted, undecided
// tickets carried to the next epoch.
func harvest(eng *admission.Engine, inflight []pendingReq, reoffer bool, st *domStats, onAdmit func(name string)) []pendingReq {
	var still []pendingReq
	for _, p := range inflight {
		out, ok := p.tk.Outcome()
		if !ok {
			still = append(still, p) // decided by a later round
			continue
		}
		switch {
		case out.Admitted:
			st.admitted++
			if onAdmit != nil {
				onAdmit(p.req.Name)
			}
		case reoffer:
			if tk, err := eng.Submit(p.req); err == nil {
				still = append(still, pendingReq{req: p.req, tk: tk})
			} else {
				st.shed++
			}
		default:
			st.rejected++
		}
	}
	return still
}

// drainInflight books the end-of-run outcomes of whatever is still queued.
func drainInflight(inflight []pendingReq, st *domStats) {
	for _, p := range inflight {
		if out, ok := p.tk.Outcome(); ok && out.Admitted {
			st.admitted++
		} else {
			st.rejected++
		}
	}
}

// driveDomain replays one domain's compiled arrival stream in drift mode:
// per epoch it applies the epoch's capacity events, submits the epoch's
// arrivals concurrently, drifts committed forecasts deterministically as
// one batch, runs the round, optionally re-offers rejections, and advances
// lifecycles.
func driveDomain(eng *admission.Engine, dom string, cfg sim.Config, reoffer bool, st *domStats) {
	var inflight []pendingReq
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		applyEpochEvents(eng, dom, cfg, epoch)
		inflight = submitAll(eng, epochOffers(dom, cfg, epoch), st, inflight)

		names, err := eng.Committed(dom)
		if err != nil {
			log.Fatal(err)
		}
		ups := make([]admission.ForecastUpdate, len(names))
		for i, n := range names {
			lh, sg := drift(n, epoch)
			ups[i] = admission.ForecastUpdate{Name: n, LambdaHat: lh, Sigma: sg}
		}
		if err := eng.UpdateForecasts(dom, ups); err != nil {
			log.Fatal(err)
		}
		if _, err := eng.DecideRound(dom); err != nil {
			log.Fatal(err)
		}
		inflight = harvest(eng, inflight, reoffer, st, nil)
		if _, err := eng.Advance(dom); err != nil {
			log.Fatal(err)
		}
	}
	drainInflight(inflight, st)
}

// drift is the deterministic forecast stand-in (loadgen has no measured
// traffic): λ̂ oscillates in [0.25Λ, 0.45Λ] with small σ̂, so steady rounds
// exercise the warm rebind path exactly like a live forecaster would.
func drift(name string, epoch int) (lambdaHat, sigma float64) {
	h := 0
	for _, c := range name {
		h = h*31 + int(c)
	}
	phase := float64(h%97) + 0.7*float64(epoch)
	lam := 25.0 // scaled per SLA by the solver's clamp
	return lam * (0.25 + 0.2*(math.Sin(phase)+1)/2), 0.08 + 0.04*(math.Cos(phase)+1)/2
}
