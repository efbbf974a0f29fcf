package experiments

import (
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/topology"
)

// Fig8Config parameterizes the §5 proof-of-concept scenario: 9 slice
// requests (3 uRLLC, then 3 mMTC, then 3 eMBB) arriving every 2 epochs on
// the 2-BS testbed, 18 one-hour epochs of 12 five-minute samples, mean
// load λ̄ = Λ/2 with σ = 0.1·λ̄ and penalty m = 1.
type Fig8Config struct {
	Algorithm string // sim.Config.Algorithm; the paper uses Benders for "our approach"
	Epochs    int    // default 18
	Seed      int64
}

// Fig8Series is the per-epoch data behind Fig. 8(a)-(d) for one policy.
type Fig8Series struct {
	Algorithm string
	Epochs    []Fig8Epoch
	// Violations and revenue summary.
	TotalRevenue  float64
	ViolationProb float64
}

// Fig8Epoch aggregates one epoch's plotted quantities.
type Fig8Epoch struct {
	Epoch      int
	NetRevenue float64 // per-epoch realized net revenue (Fig. 8a)
	// Per-slice state: reservation and measured peak per BS, CU placement.
	Slices []sim.TenantEpoch
	// PRBShare[b] sums reserved PRBs at BS b (Fig. 8b, "BS share").
	PRBShare []float64
	// CPUReserved[c] sums pinned cores per CU (Fig. 8d).
	CPUReserved []float64
	// CPUUsed[c] sums actual load-driven cores per CU.
	CPUUsed []float64
}

// fig8Specs builds the paper's nine staggered requests.
func fig8Specs(seed int64) []sim.SliceSpec {
	mk := func(ty slice.Type, idx, arrival int) sim.SliceSpec {
		tmpl := slice.Table1(ty)
		mean := tmpl.RateMbps / 2
		return sim.SliceSpec{
			Name:          fmt.Sprintf("%s%d", ty, idx),
			Template:      tmpl.WithStd(0.1 * mean),
			PenaltyFactor: 1,
			MeanMbps:      mean,
			StdMbps:       0.1 * mean,
			ArrivalEpoch:  arrival,
			Duration:      1 << 20,
			Seed:          seed + int64(arrival)*13 + int64(idx),
		}
	}
	var specs []sim.SliceSpec
	arrival := 0
	for i, ty := range []slice.Type{slice.URLLC, slice.URLLC, slice.URLLC,
		slice.MMTC, slice.MMTC, slice.MMTC, slice.EMBB, slice.EMBB, slice.EMBB} {
		specs = append(specs, mk(ty, i%3+1, arrival))
		arrival += 2
	}
	return specs
}

// Fig8 runs the testbed-day scenario under the given policy and returns
// the per-epoch series of Fig. 8(a)–(d).
func Fig8(cfg Fig8Config) (*Fig8Series, error) {
	if cfg.Epochs == 0 {
		cfg.Epochs = 18
	}
	net := topology.Testbed()
	runCfg := sim.Config{
		Net:             net,
		Epochs:          cfg.Epochs,
		Slices:          fig8Specs(cfg.Seed),
		Algorithm:       cfg.Algorithm,
		SamplesPerEpoch: 12,
		KPaths:          2,
		ReofferPending:  false, // the paper's testbed rejects once, visibly
	}
	res, err := sim.Run(runCfg)
	if err != nil {
		return nil, err
	}

	out := &Fig8Series{
		Algorithm:     res.Config.Algorithm,
		TotalRevenue:  res.TotalRevenue,
		ViolationProb: res.ViolationProb,
	}
	nBS, nCU := net.NumBS(), net.NumCU()
	for _, es := range res.Epochs {
		fe := Fig8Epoch{
			Epoch:       es.Epoch,
			NetRevenue:  es.Revenue,
			Slices:      es.Tenants,
			PRBShare:    make([]float64, nBS),
			CPUReserved: make([]float64, nCU),
			CPUUsed:     make([]float64, nCU),
		}
		for _, te := range es.Tenants {
			if !te.Active {
				continue
			}
			tmpl := slice.Table1(te.Type)
			totalZ := 0.0
			for b, z := range te.Reserved {
				fe.PRBShare[b] += z * topology.EtaMHzPerMbps * 5 // MHz→PRB (100 PRB / 20 MHz)
				totalZ += z
			}
			served := 0.0
			for b, p := range te.Peak {
				served += minF(p, te.Reserved[b])
				_ = b
			}
			fe.CPUReserved[te.CU] += tmpl.Compute.Cores(totalZ)
			fe.CPUUsed[te.CU] += tmpl.Compute.Cores(served)
		}
		out.Epochs = append(out.Epochs, fe)
	}
	return out, nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// PrintFig8 renders both policies' series side by side the way the paper's
// Fig. 8 panels do.
func PrintFig8(w io.Writer, ours, baseline *Fig8Series) {
	fmt.Fprintln(w, "# Fig. 8(a): net revenue over time (testbed day, 9 slice requests)")
	fmt.Fprintln(w, "epoch\tno_overbooking\tour_approach")
	for i := range ours.Epochs {
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\n", i, baseline.Epochs[i].NetRevenue, ours.Epochs[i].NetRevenue)
	}
	for _, s := range []*Fig8Series{baseline, ours} {
		fmt.Fprintf(w, "# Fig. 8(b)-(d) [%s]: per-epoch utilization\n", s.Algorithm)
		fmt.Fprintln(w, "epoch\tprb_bs0\tprb_bs1\tcpu_resv_edge\tcpu_used_edge\tcpu_resv_core\tcpu_used_core\tactive_slices")
		for _, e := range s.Epochs {
			active := 0
			for _, te := range e.Slices {
				if te.Active {
					active++
				}
			}
			fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%d\n",
				e.Epoch, e.PRBShare[0], e.PRBShare[1],
				e.CPUReserved[0], e.CPUUsed[0], e.CPUReserved[1], e.CPUUsed[1], active)
		}
	}
	fmt.Fprintf(w, "# violations: ours=%.6f%% baseline=%.6f%%\n",
		100*ours.ViolationProb, 100*baseline.ViolationProb)
}
