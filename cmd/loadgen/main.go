// Command loadgen drives the online admission engine at load-generator
// scale: it expands a scenario archetype's arrival process (Poisson,
// bursty, flash-crowd, batch) into per-epoch request streams for D
// independent operator domains and plays each domain's compiled scenario
// through the closed loop (internal/reopt) — one reopt.World per domain,
// all on one engine — then reports end-to-end throughput, each domain's
// realized yield and the engine's metrics snapshot.
//
// Usage:
//
//	loadgen [-scenario flash-crowd] [-seed 42] [-domains 8] [-shards 0]
//	        [-epochs 0] [-tenants 0] [-algo ""] [-queue 1024]
//	        [-reoffer] [-mode closed] [-trace demand.json]
//	        [-cluster 127.0.0.1:9090] [-cluster-workers 2]
//
// -cluster turns loadgen into a cluster coordinator: it listens on the
// given TCP address, waits for -cluster-workers ovnes-worker processes,
// and dispatches every round solve to them (internal/cluster). The
// printed tables are bit-identical to the in-process run — the cluster
// determinism pin — so diffing the two outputs is a live end-to-end check.
//
// -trace replays a recorded demand file (JSON/CSV, see internal/traffic)
// as every class's load shape, so the loop is driven by real measured
// traffic instead of the archetype's synthetic shapes.
//
// Per epoch each domain's World delivers the archetype's capacity events
// (outage, degradation, churn, handover), submits the epoch's arrivals
// concurrently, runs one controller step — one admission round — and plays
// the scenario's actual per-BS traffic into the domain's monitoring store.
// -reoffer re-offers a rejected request in the next epoch's round; none is
// left after the last epoch.
//
// -mode selects the forecast feed:
//
//	closed  the full closed loop: the controller feeds forecasters from
//	        the measured traffic, rescales reservations online and settles
//	        realized yield, reported per domain;
//	static  the same loop with forecast-driven reoptimization disabled:
//	        the overbooking-free baseline to compare `closed` against (same
//	        traffic, same seeds — the yield delta is the paper's headline
//	        number, measured live).
//
// -shards 0 means one shard per CPU. Identical (scenario, seed, domains,
// mode) invocations make identical decisions at any shard count — the
// engine's determinism contract — so loadgen doubles as a quick
// cross-machine consistency check: compare the printed per-domain admit
// counts and realized yield.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
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
		mode    = flag.String("mode", "closed", "forecast feed: closed | static")
		trace   = flag.String("trace", "", "replay a recorded demand file (JSON/CSV) as every class's load")

		clAddr    = flag.String("cluster", "", "listen on this TCP address for ovnes-worker processes and dispatch round solves to them (empty = solve in-process)")
		clWorkers = flag.Int("cluster-workers", 1, "with -cluster: wait for this many workers before driving load")
	)
	flag.Parse()

	switch *mode {
	case "closed", "static":
	default:
		log.Fatalf("unknown -mode %q (want closed or static)", *mode)
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
		cfg.ReofferPending = *reoffer
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

	start := time.Now()
	res := playDomains(eng, cfgs, *mode == "static")
	if err := eng.Drain(context.Background()); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	eng.Stop()

	m := eng.Metrics()
	fmt.Println("domain\tadmitted\trejected\tshed\trealized\treward\tpenalty\tviol_prob\trescaled")
	var tot yield.Summary
	for d, r := range res {
		y := r.yield
		fmt.Printf("%s\t%d\t%d\t%d\t%.4g\t%.4g\t%.4g\t%.3g\t%d\n",
			domName(d), r.admitted, r.rejected, r.shed,
			y.Realized, y.Reward, y.Penalty, y.ViolationProb, r.rescaled)
		tot.Realized += y.Realized
		tot.Reward += y.Reward
		tot.Penalty += y.Penalty
	}
	fmt.Printf("# mode=%s total realized=%.6g (reward=%.6g penalty=%.6g) across %d domains\n",
		*mode, tot.Realized, tot.Reward, tot.Penalty, *domains)
	decided := m.Admitted + m.Rejected + m.FastRejected // shed requests were never decided
	fmt.Printf("# decided %d requests in %v → %.0f req/s (admitted=%d rejected=%d fast_rejected=%d shed=%d)\n",
		decided, elapsed.Round(time.Millisecond),
		float64(decided)/elapsed.Seconds(),
		m.Admitted, m.Rejected, m.FastRejected, m.Shed)
	fmt.Printf("# rounds=%d mean_batch=%.2f latency_p50=%v latency_p99=%v\n",
		m.Rounds, m.MeanBatch, m.LatencyP50.Round(time.Microsecond), m.LatencyP99.Round(time.Microsecond))
}

func domName(d int) string { return fmt.Sprintf("op%d", d) }

// domResult is one domain's request accounting and realized-yield account.
type domResult struct {
	admitted, rejected, shed, rescaled int
	yield                              yield.Summary
}

// playDomains plays every domain's compiled scenario concurrently on one
// engine, domain d under the name domName(d).
func playDomains(eng *admission.Engine, cfgs []sim.Config, static bool) []domResult {
	res := make([]domResult, len(cfgs))
	var wg sync.WaitGroup
	for d := range cfgs {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			res[d] = playDomain(eng, domName(d), cfgs[d], static)
		}(d)
	}
	wg.Wait()
	return res
}

// playDomain plays one domain's compiled scenario through the closed loop:
// a reopt.World draws the scenario's traffic into the domain's monitoring
// store, and a reopt.Controller settles yield, feeds the forecasters and
// rescales reservations each epoch (static=true freezes the forecasts —
// same rounds, no rescaling — for the baseline run).
func playDomain(eng *admission.Engine, dom string, cfg sim.Config, static bool) domResult {
	reoptEvery := 1
	if static {
		reoptEvery = -1
	}
	ctrl, err := reopt.New(reopt.Config{
		Engine: eng, Domain: dom, Store: monitor.NewStore(0),
		HWPeriod: cfg.HWPeriod, ReoptEvery: reoptEvery,
	})
	if err != nil {
		log.Fatal(err)
	}
	w := reopt.NewWorld(cfg)
	var r domResult
	for ctrl.Epoch() < cfg.Epochs {
		p, err := w.Play(ctrl)
		if err != nil {
			log.Fatal(err)
		}
		r.admitted += p.Admitted
		r.rejected += p.Rejected
		r.shed += p.Shed
		r.rescaled += p.Rescaled
	}
	r.yield = ctrl.Ledger().Snapshot()
	return r
}
