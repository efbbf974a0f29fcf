package admission

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/slice"
	"repro/internal/topology"
)

func testSLA(ty slice.Type, duration int) slice.SLA {
	return slice.SLA{Template: slice.Table1(ty), Duration: duration}.WithPenaltyFactor(1)
}

// newTestEngine builds a started single-domain engine over the testbed
// topology and cleans it up with the test.
func newTestEngine(t *testing.T, cfg Config, dc DomainConfig) *Engine {
	t.Helper()
	if dc.Net == nil {
		dc.Net = topology.Testbed()
	}
	e := New(cfg)
	if err := e.AddDomain("", dc); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
}

// await blocks until tk is done or ctx ends, and returns what the ticket
// holds: its outcome, or its terminal error.
func await(ctx context.Context, tk *Ticket) (Outcome, error) {
	select {
	case <-tk.Done():
		out, _ := tk.Outcome()
		return out, tk.Err()
	case <-ctx.Done():
		return Outcome{}, ctx.Err()
	}
}

func waitOutcome(t *testing.T, tk *Ticket) Outcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := await(ctx, tk)
	if err != nil {
		t.Fatalf("ticket: %v", err)
	}
	return out
}

func TestQueueBackpressure(t *testing.T) {
	e := newTestEngine(t, Config{QueueDepth: 2}, DomainConfig{Algorithm: "direct"})
	if _, err := e.Submit(Request{Name: "a", SLA: testSLA(slice.URLLC, 4)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(Request{Name: "b", SLA: testSLA(slice.URLLC, 4)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(Request{Name: "c", SLA: testSLA(slice.URLLC, 4)}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("3rd submit: %v, want ErrOverloaded", err)
	}
	if m := e.Metrics(); m.Shed != 1 || m.QueueDepth != 2 {
		t.Fatalf("metrics after shed: %+v", m)
	}
}

func TestDuplicateNamesAndReuse(t *testing.T) {
	e := newTestEngine(t, Config{}, DomainConfig{Algorithm: "no-overbooking"})
	// Capacity allows exactly one full mMTC reservation (2 BS × 10 Mb/s ×
	// 2 cores/Mbps = 40 cores on the 64-core core cloud).
	for _, n := range []string{"m1", "m2"} {
		if _, err := e.Submit(Request{Name: n, SLA: testSLA(slice.MMTC, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Submit(Request{Name: "m1", SLA: testSLA(slice.MMTC, 8)}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate queued name: %v, want ErrDuplicate", err)
	}
	r, err := e.DecideRound("")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Admitted) != 1 || len(r.Rejected) != 1 {
		t.Fatalf("round: admitted=%v rejected=%v", r.Admitted, r.Rejected)
	}
	// A committed name stays blocked; a rejected name is reusable.
	if _, err := e.Submit(Request{Name: r.Admitted[0], SLA: testSLA(slice.MMTC, 8)}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("committed name resubmitted: %v, want ErrDuplicate", err)
	}
	if _, err := e.Submit(Request{Name: r.Rejected[0], SLA: testSLA(slice.MMTC, 8)}); err != nil {
		t.Fatalf("rejected name not reusable: %v", err)
	}
}

func TestPrefilterDelayInfeasibleMatchesSolver(t *testing.T) {
	net := topology.Testbed()
	sla := testSLA(slice.URLLC, 4)
	sla.DelayBound = 1e-9 // below any achievable end-to-end delay

	e := newTestEngine(t, Config{}, DomainConfig{Net: net, Algorithm: "direct"})
	tk, err := e.Submit(Request{Name: "impossible", SLA: sla})
	if err != nil {
		t.Fatal(err)
	}
	out, ok := tk.Outcome()
	if !ok || !out.FastRejected || out.Admitted {
		t.Fatalf("fast-reject outcome: %+v ok=%v", out, ok)
	}
	if m := e.Metrics(); m.FastRejected != 1 || m.QueueDepth != 0 {
		t.Fatalf("metrics: %+v", m)
	}

	// One-sidedness: the solver rejects the same request.
	inst := &core.Instance{
		Net: net, Paths: net.Paths(3),
		Tenants:  []core.TenantSpec{{Name: "impossible", SLA: sla, LambdaHat: sla.RateMbps, Sigma: 1, RemainingEpochs: 4}},
		Overbook: true, BigM: 1e4,
	}
	dec, err := core.SolveDirect(inst)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Accepted[0] {
		t.Fatal("solver admitted a request the prefilter rejects — prefilter is not one-sided")
	}
}

func TestPrefilterCapacityHardOnly(t *testing.T) {
	net := topology.Testbed()
	big := testSLA(slice.EMBB, 4)
	big.RateMbps = 1e6 // no BS can carry this

	// Soft capacity (default big-M): the capacity checks stay off — the
	// solver keeps the last word.
	soft := newTestEngine(t, Config{}, DomainConfig{Net: net, Algorithm: "direct"})
	tk, err := soft.Submit(Request{Name: "huge", SLA: big})
	if err != nil {
		t.Fatal(err)
	}
	if out, ok := tk.Outcome(); ok && out.FastRejected {
		t.Fatalf("soft-capacity domain fast-rejected: %+v", out)
	}

	// Hard capacity (BigM < 0): fast-rejected, and the solver agrees.
	hard := newTestEngine(t, Config{}, DomainConfig{Net: net, Algorithm: "direct", BigM: -1})
	tk, err = hard.Submit(Request{Name: "huge", SLA: big})
	if err != nil {
		t.Fatal(err)
	}
	out, ok := tk.Outcome()
	if !ok || !out.FastRejected {
		t.Fatalf("hard-capacity domain did not fast-reject: %+v ok=%v", out, ok)
	}
	inst := &core.Instance{
		Net: net, Paths: net.Paths(3),
		Tenants:  []core.TenantSpec{{Name: "huge", SLA: big, LambdaHat: big.RateMbps, Sigma: 1, RemainingEpochs: 4}},
		Overbook: true, BigM: 0,
	}
	dec, err := core.SolveDirect(inst)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Accepted[0] {
		t.Fatal("hard solver admitted a request the prefilter rejects")
	}
}

func TestSizeTriggeredFlush(t *testing.T) {
	// eMBB carries no compute demand, so two full-SLA slices co-fit the
	// testbed radio (2 × 50 of 150 Mb/s per BS) and both admit.
	e := newTestEngine(t, Config{MaxBatch: 2}, DomainConfig{Algorithm: "direct"})
	tk1, err := e.Submit(Request{Name: "u1", SLA: testSLA(slice.EMBB, 4)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk1.Done():
		t.Fatal("round ran before the batch filled")
	case <-time.After(20 * time.Millisecond):
	}
	tk2, err := e.Submit(Request{Name: "u2", SLA: testSLA(slice.EMBB, 4)})
	if err != nil {
		t.Fatal(err)
	}
	out1, out2 := waitOutcome(t, tk1), waitOutcome(t, tk2)
	if !out1.Admitted || !out2.Admitted {
		t.Fatalf("outcomes: %+v %+v", out1, out2)
	}
	if out1.Round != out2.Round {
		t.Fatalf("requests split across rounds %d and %d, want one micro-batch", out1.Round, out2.Round)
	}
	if m := e.Metrics(); m.Rounds != 1 || m.MeanBatch != 2 {
		t.Fatalf("batching metrics: %+v", m)
	}
}

// TestTimerTriggeredFlush: a lone request with FlushEvery set is decided
// with no DecideRound or Drain: it finds its lane idle and Submit cuts it at
// once (TestIdleLaneCutsAtOnce pins that no timer is waited for).
func TestTimerTriggeredFlush(t *testing.T) {
	e := newTestEngine(t, Config{FlushEvery: 2 * time.Millisecond}, DomainConfig{Algorithm: "direct"})
	tk, err := e.Submit(Request{Name: "u1", SLA: testSLA(slice.URLLC, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if out := waitOutcome(t, tk); !out.Admitted {
		t.Fatalf("outcome: %+v", out)
	}
}

func TestForecastDriftShrinksReservations(t *testing.T) {
	e := newTestEngine(t, Config{}, DomainConfig{Algorithm: "benders"})
	tk, err := e.Submit(Request{Name: "u1", SLA: testSLA(slice.URLLC, 16)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DecideRound(""); err != nil {
		t.Fatal(err)
	}
	out := waitOutcome(t, tk)
	if !out.Admitted || out.Reserved[0] < 24.9 {
		t.Fatalf("cold-start admission: %+v (want full 25 Mb/s SLA)", out)
	}

	// Forecast drops to 10 of 25 Mb/s with high confidence — below σ≈0.15
	// the marginal risk ξK/(Λ−λ̂) undercuts the holding price and the next
	// (batchless) round shrinks the reservation toward λ̂.
	if err := e.UpdateForecasts("", []ForecastUpdate{{Name: "u1", LambdaHat: 10, Sigma: 0.05}}); err != nil {
		t.Fatal(err)
	}
	r, err := e.DecideRound("")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Admitted)+len(r.Rejected) != 0 || len(r.Names) != 1 || r.Names[0] != "u1" {
		t.Fatalf("round shape: %+v", r)
	}
	if z := r.Decision.Z[0][0]; z >= 24 {
		t.Fatalf("reservation never shrank: %v", r.Decision.Z[0])
	}
	if err := e.UpdateForecasts("", []ForecastUpdate{{Name: "ghost", LambdaHat: 1, Sigma: 1}}); err == nil {
		t.Fatal("forecast update for unknown slice succeeded")
	}
}

func TestAdvanceExpiresAndFreesNames(t *testing.T) {
	e := newTestEngine(t, Config{}, DomainConfig{Algorithm: "direct"})
	tk, err := e.Submit(Request{Name: "short", SLA: testSLA(slice.URLLC, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DecideRound(""); err != nil {
		t.Fatal(err)
	}
	if out := waitOutcome(t, tk); !out.Admitted {
		t.Fatalf("outcome: %+v", out)
	}
	if exp, err := e.Advance(""); err != nil || len(exp) != 0 {
		t.Fatalf("first advance: %v %v", exp, err)
	}
	exp, err := e.Advance("")
	if err != nil || len(exp) != 1 || exp[0] != "short" {
		t.Fatalf("second advance: %v %v", exp, err)
	}
	if names := mustCommittedIn(t, e, ""); len(names) != 0 {
		t.Fatalf("committed after expiry: %v", names)
	}
	if _, err := e.Submit(Request{Name: "short", SLA: testSLA(slice.URLLC, 2)}); err != nil {
		t.Fatalf("expired name not reusable: %v", err)
	}
}

func TestDrainDecidesEverythingThenRefuses(t *testing.T) {
	e := newTestEngine(t, Config{}, DomainConfig{Algorithm: "direct"})
	var tickets []*Ticket
	for _, n := range []string{"a", "b", "c"} {
		tk, err := e.Submit(Request{Name: n, SLA: testSLA(slice.URLLC, 4)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		if _, ok := tk.Outcome(); !ok {
			t.Fatalf("ticket undecided after drain: %v", tk.Err())
		}
	}
	if m := e.Metrics(); m.QueueDepth != 0 {
		t.Fatalf("queue depth after drain: %+v", m)
	}
	if _, err := e.Submit(Request{Name: "late", SLA: testSLA(slice.URLLC, 4)}); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after drain: %v, want ErrStopped", err)
	}
}

func TestStopFailsUndecidedTickets(t *testing.T) {
	e := New(Config{})
	if err := e.AddDomain("", DomainConfig{Net: topology.Testbed(), Algorithm: "direct"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	tk, err := e.Submit(Request{Name: "orphan", SLA: testSLA(slice.URLLC, 4)})
	if err != nil {
		t.Fatal(err)
	}
	e.Stop()
	if _, err := await(context.Background(), tk); !errors.Is(err, ErrStopped) {
		t.Fatalf("orphan ticket: %v, want ErrStopped", err)
	}
	e.Stop() // idempotent
}

func TestUnknownDomain(t *testing.T) {
	e := newTestEngine(t, Config{}, DomainConfig{Algorithm: "direct"})
	if _, err := e.Submit(Request{Domain: "mars", Name: "x", SLA: testSLA(slice.URLLC, 4)}); !errors.Is(err, ErrUnknownDomain) {
		t.Fatalf("submit: %v", err)
	}
	if _, err := e.DecideRound("mars"); !errors.Is(err, ErrUnknownDomain) {
		t.Fatalf("round: %v", err)
	}
	if err := e.AddDomain("default", DomainConfig{Net: topology.Testbed()}); err == nil {
		t.Fatal("duplicate domain added")
	}
}

func TestMonitorPublishing(t *testing.T) {
	store := monitor.NewStore(0)
	e := newTestEngine(t, Config{Store: store}, DomainConfig{Algorithm: "direct"})
	if _, err := e.Submit(Request{Name: "u1", SLA: testSLA(slice.URLLC, 4)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DecideRound(""); err != nil {
		t.Fatal(err)
	}
	if got := store.ElementEpochSamples("admission", "round_ms", DefaultDomain, 0); len(got) != 1 {
		t.Fatalf("round_ms samples: %v, want one", got)
	}
}

func TestMetricsLatencyQuantiles(t *testing.T) {
	e := newTestEngine(t, Config{MaxBatch: 1}, DomainConfig{Algorithm: "direct"})
	var tickets []*Ticket
	for _, n := range []string{"a", "b", "c"} {
		tk, err := e.Submit(Request{Name: n, SLA: testSLA(slice.URLLC, 4)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		waitOutcome(t, tk)
	}
	m := e.Metrics()
	if m.LatencyP50 <= 0 || m.LatencyP99 < m.LatencyP50 {
		t.Fatalf("latency quantiles: %+v", m)
	}
	if m.Submitted != 3 || m.Admitted+m.Rejected != 3 {
		t.Fatalf("counters: %+v", m)
	}
}

// TestMetricsSortsInScratchWithoutAllocating: a poll reads the nearest-rank
// quantiles of the ring's samples, leaves the ring in arrival order, and
// allocates nothing once the engine's scratch buffer exists — with the ring
// part full and after it wrapped.
func TestMetricsSortsInScratchWithoutAllocating(t *testing.T) {
	e := newTestEngine(t, Config{}, DomainConfig{Algorithm: "direct"})
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 100, latencyWindow + 333} {
		e.mu.Lock()
		for i := 0; i < n; i++ {
			e.met.observeLatency(time.Duration(rng.Int63n(1e9)))
		}
		ring := append([]time.Duration(nil), e.met.lat[:e.met.latN]...)
		e.mu.Unlock()

		want := append([]time.Duration(nil), ring...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		m := e.Metrics()
		if m.LatencyP50 != quantile(want, 0.50) || m.LatencyP99 != quantile(want, 0.99) {
			t.Fatalf("after %d samples: p50 %v p99 %v, want %v %v", n, m.LatencyP50, m.LatencyP99, quantile(want, 0.50), quantile(want, 0.99))
		}
		e.mu.Lock()
		same := slices.Equal(ring, e.met.lat[:e.met.latN])
		e.mu.Unlock()
		if !same {
			t.Fatalf("after %d samples: Metrics reordered the latency ring", n)
		}
		if allocs := testing.AllocsPerRun(50, func() { e.Metrics() }); allocs != 0 {
			t.Fatalf("after %d samples: Metrics allocates %v times per call, want 0", n, allocs)
		}
	}
}

// TestConcurrentMetricsReaders: readers share the engine's scratch buffer,
// so under -race several of them polling while latencies arrive must not
// race, and each must read quantiles of one consistent ring.
func TestConcurrentMetricsReaders(t *testing.T) {
	e := newTestEngine(t, Config{}, DomainConfig{Algorithm: "direct"})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			e.mu.Lock()
			e.met.observeLatency(time.Duration(i))
			e.mu.Unlock()
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if m := e.Metrics(); m.LatencyP99 < m.LatencyP50 {
					t.Errorf("p99 %v below p50 %v", m.LatencyP99, m.LatencyP50)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestUpdateForecastsCopiesItsArgument: the engine keeps the values, not the
// slice — the closed loop passes its own per-step buffer and refills it the
// next step.
func TestUpdateForecastsCopiesItsArgument(t *testing.T) {
	e := newTestEngine(t, Config{}, DomainConfig{Algorithm: "direct"})
	if _, err := e.Submit(Request{Name: "u1", SLA: testSLA(slice.URLLC, 4)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DecideRound(""); err != nil {
		t.Fatal(err)
	}
	ups := []ForecastUpdate{{Name: "u1", LambdaHat: 7, Sigma: 0.25}}
	if err := e.UpdateForecasts("", ups); err != nil {
		t.Fatal(err)
	}
	ups[0] = ForecastUpdate{Name: "other", LambdaHat: -1, Sigma: -1}
	det, err := e.CommittedDetail("")
	if err != nil || len(det) != 1 || det[0].LambdaHat != 7 || det[0].Sigma != 0.25 {
		t.Fatalf("committed view followed the caller's buffer: %+v (%v)", det, err)
	}
}
