package admission

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/slice"
	"repro/internal/topology"
)

// BenchmarkAdmissionThroughput measures end-to-end decisions per second —
// submit, batch, solve, commit — for a fixed 8-domain online workload at
// increasing shard counts. The single-shard run is the serial baseline the
// multi-shard speedup is quoted against (EXPERIMENTS.md); decisions are
// identical at every shard count (TestShardCountInvariance), so the only
// thing that changes is wall clock.
func BenchmarkAdmissionThroughput(b *testing.B) {
	const (
		domains   = 8
		epochs    = 4
		perEpoch  = 3 // fresh requests per domain per epoch
		totalReqs = domains * epochs * perEpoch
	)
	types := []slice.Type{slice.EMBB, slice.URLLC, slice.MMTC}

	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for b.Loop() {
				e := New(Config{Shards: shards, QueueDepth: 4 * totalReqs})
				for d := 0; d < domains; d++ {
					if err := e.AddDomain(fmt.Sprintf("op%d", d), DomainConfig{
						Net: topology.Testbed(), Algorithm: "benders",
					}); err != nil {
						b.Fatal(err)
					}
				}
				if err := e.Start(); err != nil {
					b.Fatal(err)
				}
				// One driver per domain: submissions, epoch rounds with
				// forecast drift, lifecycle — the loadgen loop in miniature.
				var wg sync.WaitGroup
				for d := 0; d < domains; d++ {
					wg.Add(1)
					go func(d int) {
						defer wg.Done()
						dom := fmt.Sprintf("op%d", d)
						for ep := 0; ep < epochs; ep++ {
							for k := 0; k < perEpoch; k++ {
								ty := types[(d+ep+k)%len(types)]
								_, err := e.Submit(Request{
									Domain: dom,
									Name:   fmt.Sprintf("e%d-k%d", ep, k),
									SLA:    slice.SLA{Template: slice.Table1(ty), Duration: 2}.WithPenaltyFactor(1),
								})
								if err != nil {
									b.Error(err)
									return
								}
							}
							for _, name := range committedOf(b, e, dom) {
								lh, sg := driftView(name, slice.SLA{Template: slice.Table1(slice.EMBB)}, ep)
								if err := e.UpdateForecasts(dom, []ForecastUpdate{{Name: name, LambdaHat: lh, Sigma: sg}}); err != nil {
									b.Error(err)
									return
								}
							}
							if _, err := e.DecideRound(dom); err != nil {
								b.Error(err)
								return
							}
							if _, err := e.Advance(dom); err != nil {
								b.Error(err)
								return
							}
						}
					}(d)
				}
				wg.Wait()
				if err := e.Drain(context.Background()); err != nil {
					b.Fatal(err)
				}
				e.Stop()
				if m := e.Metrics(); m.Submitted != totalReqs {
					b.Fatalf("workload decided %d of %d requests (%+v)", m.Submitted, totalReqs, m)
				}
			}
			b.ReportMetric(float64(totalReqs*b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkAdmissionBatching measures the cost of round granularity for K
// concurrent requests: one-by-one incremental rounds (each a warm-session
// re-entry against a mostly-pinned committed set) versus a single
// coalesced round (one solve, but a master MILP with K free admission
// binaries). The numbers put the trade-off on record: incremental rounds
// are the cheap steady-state path, and batching exists to bound the solve
// rate under bursts — one round per cut no matter how many requests
// arrive — not to make a round cheaper.
func BenchmarkAdmissionBatching(b *testing.B) {
	const perWave = 8
	types := []slice.Type{slice.EMBB, slice.URLLC, slice.MMTC}
	run := func(b *testing.B, coalesce bool) {
		for b.Loop() {
			e := New(Config{QueueDepth: 4 * perWave})
			if err := e.AddDomain("", DomainConfig{Net: topology.Testbed(), Algorithm: "benders"}); err != nil {
				b.Fatal(err)
			}
			if err := e.Start(); err != nil {
				b.Fatal(err)
			}
			for k := 0; k < perWave; k++ {
				_, err := e.Submit(Request{
					Name: fmt.Sprintf("k%d", k),
					SLA:  slice.SLA{Template: slice.Table1(types[k%len(types)]), Duration: 8}.WithPenaltyFactor(1),
				})
				if err != nil {
					b.Fatal(err)
				}
				if !coalesce {
					if _, err := e.DecideRound(""); err != nil {
						b.Fatal(err)
					}
				}
			}
			if coalesce {
				if _, err := e.DecideRound(""); err != nil {
					b.Fatal(err)
				}
			}
			e.Stop()
		}
		b.ReportMetric(float64(perWave*b.N)/b.Elapsed().Seconds(), "req/s")
	}
	b.Run(fmt.Sprintf("rounds=%d", perWave), func(b *testing.B) { run(b, false) })
	b.Run("rounds=1", func(b *testing.B) { run(b, true) })
}

// BenchmarkDecideRoundWarm is the warm path's floor, to be read at -cpu 1,2:
// one Testbed domain with three committed slices, and per iteration what one
// closed-loop epoch asks of the engine — a fresh forecast view for every
// slice, then a synchronous round that re-tracks the reservations on the warm
// session. One driver never finds its lane busy, so the round runs on the
// benchmark's goroutine; a second processor has nothing to add and must not
// cost anything (it did while every round crossed to a shard goroutine and
// back: EXPERIMENTS.md, processors table).
func BenchmarkDecideRoundWarm(b *testing.B) {
	e := New(Config{})
	if err := e.AddDomain("", DomainConfig{Net: topology.Testbed(), Algorithm: "benders"}); err != nil {
		b.Fatal(err)
	}
	if err := e.Start(); err != nil {
		b.Fatal(err)
	}
	defer e.Stop()
	var slas []slice.SLA
	var ups []ForecastUpdate
	for k, ty := range []slice.Type{slice.EMBB, slice.URLLC, slice.MMTC} {
		name := fmt.Sprintf("s%d", k)
		sla := slice.SLA{Template: slice.Table1(ty), Duration: 1 << 20}.WithPenaltyFactor(1)
		if _, err := e.Submit(Request{Name: name, SLA: sla}); err != nil {
			b.Fatal(err)
		}
		slas = append(slas, sla)
		ups = append(ups, ForecastUpdate{Name: name})
	}
	if r, err := e.DecideRound(""); err != nil || len(r.Admitted) != len(ups) {
		b.Fatalf("cold round: %+v, %v", r, err)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		for k := range ups {
			ups[k].LambdaHat, ups[k].Sigma = driftView(ups[k].Name, slas[k], i)
		}
		if err := e.UpdateForecasts("", ups); err != nil {
			b.Fatal(err)
		}
		if _, err := e.DecideRound(""); err != nil {
			b.Fatal(err)
		}
	}
}

func committedOf(b *testing.B, e *Engine, domain string) []string {
	b.Helper()
	cs, err := e.CommittedDetail(domain)
	if err != nil {
		b.Fatal(err)
	}
	return committedNames(cs)
}

// metroDeploy is the lazily built metro-scale deployment BenchmarkMetroRound
// measures: topology.MetroPods independent pod domains (>= 1000 BSs total),
// each a strict-tree pod under the deep four-tier CU hierarchy, populated
// with the metro archetype's tenant mix and taken through its first (cold)
// round. Built once per process — the cold factorizations are setup cost,
// not the thing the benchmark times.
var metroDeploy struct {
	once sync.Once
	eng  *Engine
	err  error
}

func metroEngine(b *testing.B) *Engine {
	b.Helper()
	metroDeploy.once.Do(func() {
		pod := topology.Metro(topology.MetroPodBS)
		e := New(Config{Shards: 0, QueueDepth: 8 * topology.MetroPods})
		types := []slice.Type{slice.URLLC, slice.URLLC, slice.EMBB, slice.MMTC}
		for d := 0; d < topology.MetroPods; d++ {
			if err := e.AddDomain(fmt.Sprintf("pod%d", d), DomainConfig{
				Net: pod, KPaths: 1, Algorithm: "benders",
			}); err != nil {
				metroDeploy.err = err
				return
			}
		}
		if err := e.Start(); err != nil {
			metroDeploy.err = err
			return
		}
		for d := 0; d < topology.MetroPods; d++ {
			dom := fmt.Sprintf("pod%d", d)
			for k, ty := range types {
				_, err := e.Submit(Request{
					Domain: dom,
					Name:   fmt.Sprintf("t%d", k),
					SLA:    slice.SLA{Template: slice.Table1(ty), Duration: 1 << 20}.WithPenaltyFactor(1),
				})
				if err != nil {
					metroDeploy.err = err
					return
				}
			}
			if _, err := e.DecideRound(dom); err != nil {
				metroDeploy.err = err
				return
			}
		}
		metroDeploy.eng = e
	})
	if metroDeploy.err != nil {
		b.Fatal(metroDeploy.err)
	}
	return metroDeploy.eng
}

// BenchmarkMetroRound times one steady-state admission round over the full
// metro deployment: every pod domain gets a forecast drift on its committed
// slices and one warm DecideRound (dual-simplex re-entry, Forrest–Tomlin
// updates, batched slave ftran — no cold factorization on this path). This
// is the per-round latency the metro tier is budgeted against: a developer
// tool, not a gate (make metro-smoke pins the 44 pods' decisions).
func BenchmarkMetroRound(b *testing.B) {
	e := metroEngine(b)
	for i := 0; b.Loop(); i++ {
		for d := 0; d < topology.MetroPods; d++ {
			dom := fmt.Sprintf("pod%d", d)
			for _, name := range committedOf(b, e, dom) {
				lh, sg := driftView(name, slice.SLA{Template: slice.Table1(slice.EMBB)}, i)
				if err := e.UpdateForecasts(dom, []ForecastUpdate{{Name: name, LambdaHat: lh, Sigma: sg}}); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := e.DecideRound(dom); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N*topology.MetroPods)/b.Elapsed().Seconds(), "pod-rounds/s")
}

// BenchmarkMetroPodCold times the metro tier's cliff: one 24-BS pod added as
// a fresh domain and taken through its first batch round — cold slave, cold
// master re-solved on the dense tableau every Benders iteration, nothing
// carried. It is what a metro cold start pays 44 times and what every
// shape-changing round on a pod pays once. The decision table is asserted so
// two runs provably timed the same work; the gated measurement of this path
// is the benchmark's metro-cold workload.
func BenchmarkMetroPodCold(b *testing.B) {
	pod := topology.Metro(topology.MetroPodBS)
	types := []slice.Type{slice.URLLC, slice.URLLC, slice.EMBB, slice.MMTC}
	for b.Loop() {
		e := New(Config{Shards: 1})
		if err := e.AddDomain("pod", DomainConfig{Net: pod, KPaths: 1, Algorithm: "benders"}); err != nil {
			b.Fatal(err)
		}
		if err := e.Start(); err != nil {
			b.Fatal(err)
		}
		for k, ty := range types {
			if _, err := e.Submit(Request{
				Domain: "pod",
				Name:   fmt.Sprintf("t%d", k),
				SLA:    slice.SLA{Template: slice.Table1(ty), Duration: 1 << 20}.WithPenaltyFactor(1),
			}); err != nil {
				b.Fatal(err)
			}
		}
		r, err := e.DecideRound("pod")
		if err != nil {
			b.Fatal(err)
		}
		if got := fmt.Sprint(r.Admitted, r.Rejected, r.Decision.CU, r.Decision.Iterations); got != metroPodColdTable {
			b.Fatalf("cold pod round decided %s, want %s", got, metroPodColdTable)
		}
		b.StopTimer()
		e.Stop()
		b.StartTimer()
	}
}

// metroPodColdTable is the cold pod round's admitted names, rejected names,
// per-tenant CU placement and Benders iteration count.
const metroPodColdTable = "[t0 t1 t2 t3] [] [1 0 0 2] 9"
