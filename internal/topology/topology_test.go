package topology

import (
	"math"
	"testing"
	"testing/quick"
)

// line builds a trivial BS—switch—CU line network for unit tests.
func line() *Network {
	b := newBuilder("line", 1)
	bs := b.node(BSNode, 0, 0)
	sw := b.node(SwitchNode, 1, 0)
	cu := b.node(CUNode, 2, 0)
	b.link(bs, sw, 1000, Fiber)
	b.link(sw, cu, 1000, Fiber)
	b.bs(bs, DefaultCarrierMHz)
	b.net.CUs = append(b.net.CUs, CU{Node: cu, CPUCores: 8, Edge: true})
	return b.finish()
}

func TestLinkDelayModel(t *testing.T) {
	// 2 Gb/s fiber, 10 km: 12000/2e9 + 4e-6*10 + 5e-6 = 6e-6 + 4e-5 + 5e-6.
	l := Link{CapMbps: 2000, LengthKm: 10, Tech: Fiber}
	want := 12000.0/2e9 + 4e-6*10 + 5e-6
	if got := LinkDelay(l); math.Abs(got-want) > 1e-12 {
		t.Errorf("LinkDelay = %v, want %v", got, want)
	}
	// Wireless propagates at 5 µs/km.
	lw := Link{CapMbps: 2000, LengthKm: 10, Tech: Wireless}
	if LinkDelay(lw) <= LinkDelay(l) {
		t.Error("wireless must be slower than fiber over the same span")
	}
	// FixedDelay overrides everything.
	lf := Link{CapMbps: 1, LengthKm: 1000, Tech: Wireless, FixedDelay: 0.02}
	if LinkDelay(lf) != 0.02 {
		t.Errorf("fixed delay ignored: %v", LinkDelay(lf))
	}
}

func TestLinePaths(t *testing.T) {
	n := line()
	paths := n.Paths(4)
	if len(paths) != 1 || len(paths[0]) != 1 {
		t.Fatalf("unexpected path matrix shape")
	}
	ps := paths[0][0]
	if len(ps) != 1 {
		t.Fatalf("line network must have exactly 1 path, got %d", len(ps))
	}
	p := ps[0]
	if len(p.LinkIDs) != 2 || p.CapMbps != 1000 {
		t.Errorf("path = %+v", p)
	}
	wantDelay := LinkDelay(n.Links[0]) + LinkDelay(n.Links[1])
	if math.Abs(p.Delay-wantDelay) > 1e-12 {
		t.Errorf("delay = %v, want %v", p.Delay, wantDelay)
	}
	if !p.Uses(0) || !p.Uses(1) || p.Uses(99) {
		t.Error("Uses() wrong")
	}
}

// diamond builds a BS with two disjoint routes to the CU.
func diamond() *Network {
	b := newBuilder("diamond", 1)
	bs := b.node(BSNode, 0, 0)
	s1 := b.node(SwitchNode, 1, 1)
	s2 := b.node(SwitchNode, 1, -1)
	cu := b.node(CUNode, 2, 0)
	b.link(bs, s1, 1000, Fiber)
	b.link(s1, cu, 1000, Fiber)
	b.link(bs, s2, 500, Fiber) // slower and thinner
	b.link(s2, cu, 500, Fiber)
	b.bs(bs, DefaultCarrierMHz)
	b.net.CUs = append(b.net.CUs, CU{Node: cu, CPUCores: 8, Edge: true})
	return b.finish()
}

func TestYenDiamond(t *testing.T) {
	n := diamond()
	ps := n.Paths(5)[0][0]
	if len(ps) != 2 {
		t.Fatalf("want 2 disjoint paths, got %d", len(ps))
	}
	if ps[0].Delay > ps[1].Delay {
		t.Error("paths must be sorted by delay")
	}
	if ps[0].CapMbps != 1000 || ps[1].CapMbps != 500 {
		t.Errorf("bottlenecks = %v, %v", ps[0].CapMbps, ps[1].CapMbps)
	}
}

func TestYenKLimit(t *testing.T) {
	n := diamond()
	if got := len(n.Paths(1)[0][0]); got != 1 {
		t.Errorf("k=1 returned %d paths", got)
	}
}

func TestNoTransitThroughBS(t *testing.T) {
	// BS1 — BS2 — CU: BS1 must not route through BS2.
	b := newBuilder("transit", 1)
	bs1 := b.node(BSNode, 0, 0)
	bs2 := b.node(BSNode, 1, 0)
	cu := b.node(CUNode, 2, 0)
	b.link(bs1, bs2, 1000, Fiber)
	b.link(bs2, cu, 1000, Fiber)
	b.bs(bs1, DefaultCarrierMHz)
	b.bs(bs2, DefaultCarrierMHz)
	b.net.CUs = append(b.net.CUs, CU{Node: cu, CPUCores: 8, Edge: true})
	n := b.finish()

	ps := n.Paths(3)
	if len(ps[0][0]) != 0 {
		t.Error("BS1 found a path that transits another BS")
	}
	if len(ps[1][0]) != 1 {
		t.Error("BS2 should reach the CU directly")
	}
}

// shortestDelay is the minimum BS→CU delay in seconds, or +Inf when the CU
// is unreachable.
func shortestDelay(n *Network, bsIdx, cuIdx int) float64 {
	r, ok := n.dijkstra(n.BSs[bsIdx].Node, n.CUs[cuIdx].Node, nil, nil)
	if !ok {
		return math.Inf(1)
	}
	return r.delay
}

// TestSwissChains verifies that chained BSs still reach the CU even though
// their route passes other BS nodes — the Swiss generator must therefore
// produce chains the Dijkstra transit rule can still serve. This guards a
// generator/path-search interaction bug.
func TestSwissChains(t *testing.T) {
	n := Swiss(30)
	st := n.ComputeStats(8)
	if len(st.PathDelays) == 0 {
		t.Fatal("no paths at all")
	}
	// Every BS must reach the edge CU.
	for i := range n.BSs {
		if math.IsInf(shortestDelay(n, i, 0), 1) {
			t.Fatalf("BS %d cannot reach the edge CU", i)
		}
	}
}

func TestOperatorShapes(t *testing.T) {
	const k = 8
	n1 := Romanian(60)
	n2 := Swiss(60)
	n3 := Italian(60)

	s1 := n1.ComputeStats(k)
	s2 := n2.ComputeStats(k)
	s3 := n3.ComputeStats(k)

	// Path-diversity ordering from §4.3.1: N1 high (≈6.6), N3 low (≈1.6).
	if !(s1.MeanPathsPerBS > s2.MeanPathsPerBS) || !(s2.MeanPathsPerBS > s3.MeanPathsPerBS) {
		t.Errorf("path diversity ordering violated: N1=%.2f N2=%.2f N3=%.2f",
			s1.MeanPathsPerBS, s2.MeanPathsPerBS, s3.MeanPathsPerBS)
	}
	if s1.MeanPathsPerBS < 4.5 || s1.MeanPathsPerBS > 8 {
		t.Errorf("N1 mean paths %.2f outside the published ballpark of 6.6", s1.MeanPathsPerBS)
	}
	if s3.MeanPathsPerBS < 1.0 || s3.MeanPathsPerBS > 2.5 {
		t.Errorf("N3 mean paths %.2f outside the published ballpark of 1.6", s3.MeanPathsPerBS)
	}

	// Capacity ordering (Fig. 4d): Swiss bottlenecks lowest (wireless),
	// Italian highest (fiber).
	med := func(v []float64) float64 { return v[len(v)/2] }
	if !(med(s2.PathCapsMbps) < med(s1.PathCapsMbps)) || !(med(s1.PathCapsMbps) < med(s3.PathCapsMbps)) {
		t.Errorf("capacity ordering violated: N2=%.0f N1=%.0f N3=%.0f",
			med(s2.PathCapsMbps), med(s1.PathCapsMbps), med(s3.PathCapsMbps))
	}

	// All capacities within the published 2–200 Gb/s envelope.
	for _, s := range []Stats{s1, s2, s3} {
		if s.PathCapsMbps[0] < 2000-1 || s.PathCapsMbps[len(s.PathCapsMbps)-1] > 200000+1 {
			t.Errorf("capacities outside 2–200 Gb/s: [%v, %v]",
				s.PathCapsMbps[0], s.PathCapsMbps[len(s.PathCapsMbps)-1])
		}
	}

	// Italian spans the longest distances (up to 20 km).
	if s3.BSCUDistancesKm[len(s3.BSCUDistancesKm)-1] < 15 {
		t.Error("Italian topology should reach ~20 km")
	}
}

func TestFullScaleDefaults(t *testing.T) {
	if Romanian(0).NumBS() != RomanianBSCount {
		t.Error("Romanian default size wrong")
	}
	if Swiss(0).NumBS() != SwissBSCount {
		t.Error("Swiss default size wrong")
	}
	if Italian(0).NumBS() != ItalianBSCount {
		t.Error("Italian default size wrong")
	}
}

func TestCUSizing(t *testing.T) {
	n := Romanian(30)
	if len(n.CUs) != 2 {
		t.Fatalf("want edge+core CUs, got %d", len(n.CUs))
	}
	if !n.CUs[0].Edge || n.CUs[1].Edge {
		t.Error("CU edge flags wrong")
	}
	if n.CUs[0].CPUCores != EdgeCoresPerBS*30 {
		t.Errorf("edge cores = %v, want %v", n.CUs[0].CPUCores, EdgeCoresPerBS*30)
	}
	if n.CUs[1].CPUCores != EdgeCoresPerBS*30*CoreCUFactor {
		t.Errorf("core cores = %v", n.CUs[1].CPUCores)
	}
	// The core CU is reached over a ≥20 ms path; the edge CU in well
	// under 1 ms. This is what forces uRLLC (Δ=5 ms) to the edge.
	if d := shortestDelay(n, 0, 1); d < CoreCUDelay {
		t.Errorf("core CU delay %v < %v", d, CoreCUDelay)
	}
	if d := shortestDelay(n, 0, 0); d > 1e-3 {
		t.Errorf("edge CU delay %v too high", d)
	}
}

func TestTestbed(t *testing.T) {
	n := Testbed()
	if n.NumBS() != 2 || n.NumCU() != 2 {
		t.Fatal("testbed shape wrong")
	}
	if n.CUs[0].CPUCores != 16 || n.CUs[1].CPUCores != 64 {
		t.Error("testbed CU cores wrong")
	}
	ps := n.Paths(3)
	for bi := range n.BSs {
		if len(ps[bi][0]) == 0 || len(ps[bi][1]) == 0 {
			t.Errorf("BS %d missing a path to a CU", bi)
		}
	}
	// Core CU behind the emulated high-latency backhaul: far beyond
	// uRLLC's 5 ms budget but just inside eMBB/mMTC's 30 ms (§5, Fig. 8d
	// hosts mMTC on the core CU).
	if d := ps[0][1][0].Delay; d < 25e-3 || d > 30e-3 {
		t.Errorf("core path delay %v outside (25ms, 30ms]", d)
	}
	// BS radio: 20 MHz = 100 PRBs worth 150 Mb/s.
	if mb := n.BSs[0].MaxBitrate(); math.Abs(mb-150) > 1e-9 {
		t.Errorf("BS max bitrate %v, want 150", mb)
	}
}

func TestCDF(t *testing.T) {
	cdf := CDF([]float64{1, 2, 3, 4, 5}, 5)
	if len(cdf) != 5 || cdf[0][0] != 1 || cdf[4][0] != 5 || cdf[4][1] != 1 {
		t.Errorf("cdf = %v", cdf)
	}
	if CDF(nil, 5) != nil || CDF([]float64{1}, 1) != nil {
		t.Error("degenerate CDFs must be nil")
	}
}

func TestDeterminism(t *testing.T) {
	a := Romanian(40).ComputeStats(4)
	b := Romanian(40).ComputeStats(4)
	if a.MeanPathsPerBS != b.MeanPathsPerBS || len(a.PathDelays) != len(b.PathDelays) {
		t.Error("generator is not deterministic")
	}
	for i := range a.PathDelays {
		if a.PathDelays[i] != b.PathDelays[i] {
			t.Fatal("path delays differ across runs")
		}
	}
}

// TestQuickPathInvariants property-checks every enumerated path: loop-free,
// endpoints correct, delay equals the sum of link delays, capacity equals
// the bottleneck.
func TestQuickPathInvariants(t *testing.T) {
	nets := []*Network{Romanian(24), Swiss(24), Italian(24), Testbed()}
	f := func(netIdx uint8, k uint8) bool {
		n := nets[int(netIdx)%len(nets)]
		kk := 1 + int(k)%6
		for bi := range n.BSs {
			for ci := range n.CUs {
				for _, p := range n.Paths(kk)[bi][ci] {
					if p.NodeIDs[0] != n.BSs[bi].Node || p.NodeIDs[len(p.NodeIDs)-1] != n.CUs[ci].Node {
						return false
					}
					seen := map[int]bool{}
					for _, v := range p.NodeIDs {
						if seen[v] {
							return false // loop
						}
						seen[v] = true
					}
					d, cap := 0.0, math.Inf(1)
					for _, lid := range p.LinkIDs {
						l := n.LinkByID(lid)
						d += LinkDelay(l)
						if l.CapMbps < cap {
							cap = l.CapMbps
						}
					}
					if math.Abs(d-p.Delay) > 1e-9 || math.Abs(cap-p.CapMbps) > 1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestTechString(t *testing.T) {
	if Fiber.String() != "fiber" || Copper.String() != "copper" || Wireless.String() != "wireless" {
		t.Error("tech strings wrong")
	}
	if Tech(9).String() == "" {
		t.Error("unknown tech must print")
	}
}

// TestMetroFabric pins the metro-scale generator's structure: the full
// deployment crosses 1000 BSs, every pod carries the four-tier CU chain,
// and a single pod is a strict tree whose tier delays split the Table 1
// budgets (uRLLC reaches exactly the edge and aggregation tiers, eMBB and
// mMTC all four).
func TestMetroFabric(t *testing.T) {
	full := Metro(0)
	if got := full.NumBS(); got != MetroBSCount || got < 1000 {
		t.Fatalf("full metro fabric has %d BSs, want %d (>= 1000)", got, MetroBSCount)
	}
	if got, want := full.NumCU(), 4*MetroPods; got != want {
		t.Fatalf("full metro fabric has %d CUs, want %d (four tiers x %d pods)", got, want, MetroPods)
	}

	pod := Metro(MetroPodBS)
	if pod.NumBS() != MetroPodBS || pod.NumCU() != 4 {
		t.Fatalf("pod has %d BSs / %d CUs, want %d / 4", pod.NumBS(), pod.NumCU(), MetroPodBS)
	}
	paths := pod.Paths(4)
	const urllcBound, embbBound = 5e-3, 30e-3
	for b := 0; b < pod.NumBS(); b++ {
		urllcCUs, embbCUs := 0, 0
		for c := 0; c < pod.NumCU(); c++ {
			if n := len(paths[b][c]); n != 1 {
				t.Fatalf("BS %d CU %d has %d paths, want exactly 1 (strict tree)", b, c, n)
			}
			d := paths[b][c][0].Delay
			if d <= urllcBound {
				urllcCUs++
			}
			if d <= embbBound {
				embbCUs++
			}
		}
		if urllcCUs != 2 {
			t.Errorf("BS %d reaches %d CUs within the uRLLC budget, want 2 (edge+agg)", b, urllcCUs)
		}
		if embbCUs != 4 {
			t.Errorf("BS %d reaches %d CUs within the eMBB budget, want all 4 tiers", b, embbCUs)
		}
	}
	// Tier sizing: edge deliberately undersized, core on the 5x rule.
	podCores := EdgeCoresPerBS * float64(MetroPodBS)
	if got := pod.CUs[0].CPUCores; got >= podCores {
		t.Errorf("edge tier has %v cores, want < the 20·N rule (%v)", got, podCores)
	}
	if got, want := pod.CUs[3].CPUCores, CoreCUFactor*podCores; got != want {
		t.Errorf("core tier has %v cores, want %v", got, want)
	}
	if !pod.CUs[0].Edge || pod.CUs[1].Edge || pod.CUs[2].Edge || pod.CUs[3].Edge {
		t.Error("exactly the first tier must be marked Edge")
	}
}
