package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestTable1Rows(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("want 3 template rows, got %d", len(rows))
	}
	if rows[0].Type != "eMBB" || rows[0].RateMbps != 50 || rows[0].DelayMs != 30 {
		t.Errorf("eMBB row wrong: %+v", rows[0])
	}
	if rows[1].Type != "mMTC" || rows[1].ComputeB != 2 || rows[1].Sigma != "0" {
		t.Errorf("mMTC row wrong: %+v", rows[1])
	}
	if rows[2].Type != "uRLLC" || rows[2].DelayMs != 5 {
		t.Errorf("uRLLC row wrong: %+v", rows[2])
	}
	var buf bytes.Buffer
	PrintTable1(&buf)
	if !strings.Contains(buf.String(), "uRLLC") {
		t.Error("printed table missing rows")
	}
}

func TestFig4Shapes(t *testing.T) {
	rows := Fig4(40, 6, 11)
	if len(rows) != 3 {
		t.Fatalf("want 3 topologies, got %d", len(rows))
	}
	// Path-diversity ordering (§4.3.1): N1 ≈ 6.6 high, N3 ≈ 1.6 low.
	if !(rows[0].MeanPathsPerBS > rows[2].MeanPathsPerBS) {
		t.Errorf("Romanian (%.2f) must out-diversify Italian (%.2f)",
			rows[0].MeanPathsPerBS, rows[2].MeanPathsPerBS)
	}
	for _, r := range rows {
		if len(r.CapCDF) != 11 || len(r.DelayCDF) != 11 {
			t.Errorf("%s: CDF lengths %d/%d", r.Name, len(r.CapCDF), len(r.DelayCDF))
		}
		// CDFs are monotone in both coordinates.
		for i := 1; i < len(r.CapCDF); i++ {
			if r.CapCDF[i][0] < r.CapCDF[i-1][0] || r.CapCDF[i][1] < r.CapCDF[i-1][1] {
				t.Errorf("%s: capacity CDF not monotone", r.Name)
				break
			}
		}
		// Published capacity envelope: 2–200 Gb/s.
		if r.CapCDF[0][0] < 2-0.01 || r.CapCDF[len(r.CapCDF)-1][0] > 200+0.01 {
			t.Errorf("%s: capacities outside 2–200 Gb/s: %v", r.Name, r.CapCDF)
		}
	}
	var buf bytes.Buffer
	PrintFig4(&buf, rows)
	if !strings.Contains(buf.String(), "Fig. 4(d)") || !strings.Contains(buf.String(), "Fig. 4(e)") {
		t.Error("printed figure missing panels")
	}
}

func TestFig5SinglePoint(t *testing.T) {
	pts, err := Fig5(Fig5Config{
		Topologies: []string{"Romanian"},
		SliceTypes: []string{"eMBB"},
		Alphas:     []float64{0.25},
		SigmaFracs: []float64{0.25},
		Penalties:  []float64{1},
		Tenants:    5,
		NBS:        3,
		Epochs:     10,
		KPaths:     1,
		Algorithm:  "direct",
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("want 1 point, got %d", len(pts))
	}
	p := pts[0]
	// The headline result: overbooking must not lose to the baseline at
	// low load, and violations stay rare.
	if p.GainPct < 0 {
		t.Errorf("negative gain at low load: %+v", p)
	}
	if p.ViolationProb > 0.02 {
		t.Errorf("violations too frequent: %v", p.ViolationProb)
	}
	var buf bytes.Buffer
	PrintFig5(&buf, pts)
	if !strings.Contains(buf.String(), "Romanian") {
		t.Error("printed figure missing data")
	}
}

func TestFig5GainDecreasesWithLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	pts, err := Fig5(Fig5Config{
		Topologies: []string{"Romanian"},
		SliceTypes: []string{"eMBB"},
		Alphas:     []float64{0.2, 0.8},
		SigmaFracs: []float64{0.25},
		Penalties:  []float64{1},
		Tenants:    6,
		NBS:        3,
		Epochs:     12,
		KPaths:     1,
		Algorithm:  "direct",
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// §4.3.3 first observation: lower mean load ⇒ more multiplexing room
	// ⇒ larger relative gains.
	if !(pts[0].GainPct >= pts[1].GainPct) {
		t.Errorf("gain at α=0.2 (%.1f%%) should be ≥ gain at α=0.8 (%.1f%%)",
			pts[0].GainPct, pts[1].GainPct)
	}
}

func TestFig6MixSweep(t *testing.T) {
	pts, err := Fig6(Fig6Config{
		Topologies: []string{"Romanian"},
		Mixes:      [][2]string{{"eMBB", "mMTC"}},
		Betas:      []float64{0, 100},
		Tenants:    4,
		NBS:        3,
		Epochs:     8,
		KPaths:     1,
		Algorithm:  "direct",
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("want 2 points, got %d", len(pts))
	}
	// mMTC pays (1+b) = 3 per slice vs eMBB's 1: the all-mMTC end of the
	// sweep must out-earn the all-eMBB end while compute lasts (Fig. 6's
	// rising left flank).
	if !(pts[1].Revenue > pts[0].Revenue) {
		t.Errorf("all-mMTC revenue %v should exceed all-eMBB %v", pts[1].Revenue, pts[0].Revenue)
	}
	var buf bytes.Buffer
	PrintFig6(&buf, pts)
	if !strings.Contains(buf.String(), "eMBB/mMTC") {
		t.Error("printed figure missing mix")
	}
}

func TestFig8Storyline(t *testing.T) {
	ours, err := Fig8(Fig8Config{Algorithm: "direct", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Fig8(Fig8Config{Algorithm: "no-overbooking", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(ours.Epochs) != 18 || len(base.Epochs) != 18 {
		t.Fatal("testbed day must have 18 epochs")
	}
	// The §5 headline: overbooking squeezes in extra slices and finishes
	// the day with strictly more revenue.
	if !(ours.TotalRevenue > base.TotalRevenue) {
		t.Errorf("our approach %v must out-earn no-overbooking %v",
			ours.TotalRevenue, base.TotalRevenue)
	}
	// Overbooking's footprint stays bounded: a few percent of samples
	// clip by a small amount (see EXPERIMENTS.md on the paper's tighter
	// but internally inconsistent claim).
	if ours.ViolationProb > 0.08 {
		t.Errorf("violation probability %v too high", ours.ViolationProb)
	}
	// Utilization series must be shaped per domain.
	for _, e := range ours.Epochs {
		if len(e.PRBShare) != 2 || len(e.CPUReserved) != 2 || len(e.CPUUsed) != 2 {
			t.Fatalf("epoch %d: malformed series", e.Epoch)
		}
		for c := range e.CPUUsed {
			if e.CPUUsed[c] > e.CPUReserved[c]+1e-6 {
				t.Errorf("epoch %d CU %d: used %v exceeds reserved %v",
					e.Epoch, c, e.CPUUsed[c], e.CPUReserved[c])
			}
		}
	}
	var buf bytes.Buffer
	PrintFig8(&buf, ours, base)
	if !strings.Contains(buf.String(), "Fig. 8(a)") {
		t.Error("printed figure missing revenue panel")
	}
}

func TestSLAStudyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("study is slow")
	}
	rows, err := SLAViolationStudy(3, 5, 14, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 configurations, got %d", len(rows))
	}
	// Violations must stay rare in the sanctioned configurations.
	for _, r := range rows[:2] {
		if r.ViolationProb > 0.02 {
			t.Errorf("σ=%v m=%v: violations %v too frequent", r.SigmaFrac, r.Penalty, r.ViolationProb)
		}
	}
	var buf bytes.Buffer
	PrintSLAStudy(&buf, rows)
	if !strings.Contains(buf.String(), "violation_pct") {
		t.Error("printed study missing header")
	}
}

func TestSolverScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing study is slow")
	}
	// {3,6} rather than the minimal {2,4}: the A1 claim is about how the
	// exact methods scale, and at the toy size warm-started Benders now
	// finishes in microseconds, making sub-µs timing comparisons noise.
	// Each solve is a sub-millisecond one-shot, so one scheduler hiccup
	// (a loaded CI box, a parallel package) can invert the comparison; the
	// fastest of a few repetitions is what each method costs.
	var rows []SolverTiming
	byAlgo := map[string]SolverTiming{}
	for rep := 0; rep < 5; rep++ {
		var err error
		if rows, err = SolverScaling([][2]int{{3, 6}}, 42); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if best, ok := byAlgo[r.Algorithm]; !ok || r.Seconds < best.Seconds {
				byAlgo[r.Algorithm] = r
			}
		}
	}
	if _, ok := byAlgo["benders"]; !ok {
		t.Fatal("benders missing from the smallest size")
	}
	// The A1 claim: the heuristic is far faster than the exact methods.
	// 1.5x headroom keeps scheduler jitter from flaking the comparison.
	if byAlgo["kac"].Seconds > 1.5*byAlgo["benders"].Seconds {
		t.Errorf("KAC (%vs) slower than Benders (%vs)", byAlgo["kac"].Seconds, byAlgo["benders"].Seconds)
	}
	// And never better than the optimum.
	if byAlgo["kac"].Revenue > byAlgo["direct"].Revenue+1e-6 {
		t.Errorf("heuristic revenue %v beats exact %v", byAlgo["kac"].Revenue, byAlgo["direct"].Revenue)
	}
	var buf bytes.Buffer
	PrintSolverScaling(&buf, rows)
	if !strings.Contains(buf.String(), "benders") {
		t.Error("printed study missing rows")
	}
}

func TestForecastAblationOrdering(t *testing.T) {
	rows := ForecastAblation(24, 12, 4, 42)
	byModel := map[string]ForecastScore{}
	for _, r := range rows {
		byModel[r.Model] = r
	}
	// The paper's footnote-6 rationale: HW must beat both SES and DES on
	// seasonal traffic.
	hw := byModel["holt-winters"]
	if hw.RMSE >= byModel["ses"].RMSE || hw.RMSE >= byModel["des"].RMSE {
		t.Errorf("Holt-Winters (%.2f) must beat SES (%.2f) and DES (%.2f)",
			hw.RMSE, byModel["ses"].RMSE, byModel["des"].RMSE)
	}
	var buf bytes.Buffer
	PrintForecastAblation(&buf, rows)
	if !strings.Contains(buf.String(), "holt-winters") {
		t.Error("printed ablation missing rows")
	}
}

// TestSweepsRejectUnknownTopology: an unknown topology name is an error the
// Fig. 5/6 sweeps return, not a panic.
func TestSweepsRejectUnknownTopology(t *testing.T) {
	if _, err := Fig5(Fig5Config{Topologies: []string{"atlantis"}}); err == nil || !strings.Contains(err.Error(), "atlantis") {
		t.Errorf("Fig5 with an unknown topology: err = %v, want one naming it", err)
	}
	if _, err := Fig6(Fig6Config{Topologies: []string{"atlantis"}}); err == nil || !strings.Contains(err.Error(), "atlantis") {
		t.Errorf("Fig6 with an unknown topology: err = %v, want one naming it", err)
	}
}
