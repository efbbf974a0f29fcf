package reopt

import (
	"fmt"
	"testing"

	"repro/internal/admission"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/topology"
	"repro/internal/yield"
)

// TestWarmStepAllocs caps what one warm closed-loop cycle allocates: six
// committed slices on the testbed, κ = 12 samples per (slice, BS) per epoch in
// a store whose rings are full, forecasts refreshed and the warm session
// re-entered every step. The controller's reads, totals, alive set, peaks and
// forecast updates live in its own scratch, the store overwrites in place and
// the solver layers rewrite theirs (core's TestWarmSessionSolveAllocs); what a
// step still allocates is what it hands out, 69 allocations where the tree
// before took 487 —
//
//	CommittedDetail, twice: 2 × (1 + 2 per slice)        26
//	the Decision: 5 + 2 per slice                         17
//	the master's branch-and-bound and its solutions      ≈ 7
//	StepReport, its Settled entries, the in-force record ≈ 6
//	Round, its name and outcome slices, the hand-off     ≈ 5
//	forecast views, the pooled copy of the new dual      ≈ 4
//	tiny ones a heap profile cannot place                ≈ 4
//
// (A pointer-free allocation under 16 bytes that the runtime packs into a
// block it already holds is counted here but never sampled by the memory
// profiler; the rows above are a MemProfileRate = 1 profile of the
// measured steps.)
//
// One ceiling for both builds: under the race detector sync.Pool drops a Put
// in four and the borrowed milp.Solver is grown again (≈ 106 a step).
func TestWarmStepAllocs(t *testing.T) {
	const nSlices, kappa, warmup, steps, ceiling = 6, 12, 24, 200, 160
	net := topology.Testbed()
	store := monitor.NewStore(4 * kappa)
	ledger := yield.NewLedger()
	eng := admission.New(admission.Config{Ledger: ledger})
	if err := eng.AddDomain("", admission.DomainConfig{Net: net, Algorithm: "benders"}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	ctrl, err := New(Config{Engine: eng, Store: store, Ledger: ledger})
	if err != nil {
		t.Fatal(err)
	}

	// The data plane's samples for the whole run, drawn up front: generators
	// allocate, and the feed below must not. Three slices arrive at epoch 0
	// and fill the testbed at their full SLAs; the others fit as the
	// forecasts release the headroom, two at epoch 6 and one at epoch 12.
	type stream struct {
		slice, element string
		from           int
		values         []float64 // [epoch*kappa + theta]
	}
	var streams []stream
	arrivals := map[int][]admission.Request{}
	for i := 0; i < nSlices; i++ {
		sp := sim.SliceSpec{Name: fmt.Sprintf("s%d", i), MeanMbps: 4, StdMbps: 1, Seed: int64(i + 1), Shape: sim.ShapeDiurnal}
		sla := slice.SLA{Template: slice.Table1(slice.EMBB), MeanMbps: sp.MeanMbps, Duration: 1 << 20}.WithPenaltyFactor(1)
		at := [nSlices]int{0, 0, 0, 6, 6, 12}[i]
		arrivals[at] = append(arrivals[at], admission.Request{Name: sp.Name, SLA: sla})
		for bs := 0; bs < net.NumBS(); bs++ {
			g := sim.NewGenerator(sim.Config{SamplesPerEpoch: kappa, HWPeriod: 12}, sp, bs)
			st := stream{slice: sp.Name, element: monitor.BSElement(bs), from: at}
			for epoch := 0; epoch < warmup+steps+4; epoch++ { // the measured calls and their warm-up runs
				for theta := 0; theta < kappa; theta++ {
					st.values = append(st.values, g.Sample(epoch, theta))
				}
			}
			streams = append(streams, st)
		}
	}
	epoch := 0
	feed := func() {
		for _, st := range streams {
			for theta := 0; theta < kappa && epoch >= st.from; theta++ {
				store.Add(monitor.Sample{Slice: st.slice, Metric: monitor.LoadMetric, Element: st.element,
					Epoch: epoch, Theta: theta, Value: st.values[epoch*kappa+theta]})
			}
		}
		epoch++
	}
	committed := 0
	step := func() {
		for _, req := range arrivals[epoch] {
			if _, err := eng.Submit(req); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := ctrl.Step()
		if err != nil {
			t.Fatal(err)
		}
		committed = len(rep.Round.Names) - len(rep.Round.Rejected)
	}
	for epoch < warmup {
		step()
		feed()
	}
	if committed != nSlices {
		t.Fatalf("%d slices committed after warm-up, want %d", committed, nSlices)
	}

	// The store is fed between steps; on full rings that costs nothing, so it
	// can run inside the measured function without being measured.
	if n := testing.AllocsPerRun(1, feed); n != 0 {
		t.Fatalf("feeding an epoch into full rings allocates %v times, want 0", n)
	}
	n := testing.AllocsPerRun(steps, func() {
		step()
		feed()
	})
	t.Logf("a warm step allocates %v times (ceiling %d)", n, ceiling)
	if n > ceiling {
		t.Fatalf("a warm step allocates %v times, want at most %d", n, ceiling)
	}
}
