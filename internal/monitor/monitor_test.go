package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestStorePeakAggregation(t *testing.T) {
	s := NewStore(0)
	for theta, v := range []float64{10, 42, 17} {
		s.Add(Sample{Slice: "eMBB1", Metric: "load_mbps", Element: "bs0", Epoch: 3, Theta: theta, Value: v})
	}
	// A second element contributes to the same epoch peak.
	s.Add(Sample{Slice: "eMBB1", Metric: "load_mbps", Element: "bs1", Epoch: 3, Theta: 0, Value: 55})

	peak, ok := s.EpochPeak("eMBB1", "load_mbps", 3)
	if !ok || peak != 55 {
		t.Errorf("peak = %v (%v), want 55", peak, ok)
	}
	if _, ok := s.EpochPeak("eMBB1", "load_mbps", 4); ok {
		t.Error("empty epoch must report no data")
	}
	if _, ok := s.EpochPeak("other", "load_mbps", 3); ok {
		t.Error("unknown slice must report no data")
	}
}

func TestPeakSeries(t *testing.T) {
	s := NewStore(0)
	for e := 0; e < 4; e++ {
		s.Add(Sample{Slice: "s", Metric: "m", Element: "x", Epoch: e, Value: float64(e * 10)})
	}
	got := s.PeakSeries("s", "m", 0, 4)
	want := []float64{0, 10, 20, 30, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series = %v, want %v", got, want)
		}
	}
}

func TestRingRetention(t *testing.T) {
	s := NewStore(10)
	for i := 0; i < 100; i++ {
		s.Add(Sample{Slice: "s", Metric: "m", Element: "x", Epoch: i, Value: 1})
	}
	if s.Len() != 10 {
		t.Errorf("retained %d samples, want 10", s.Len())
	}
	// Old epochs were evicted.
	if _, ok := s.EpochPeak("s", "m", 0); ok {
		t.Error("epoch 0 should have been evicted")
	}
	if _, ok := s.EpochPeak("s", "m", 99); !ok {
		t.Error("newest epoch missing")
	}
}

func TestSlices(t *testing.T) {
	s := NewStore(0)
	s.Add(Sample{Slice: "b", Metric: "m", Element: "x"})
	s.Add(Sample{Slice: "a", Metric: "m", Element: "x"})
	s.Add(Sample{Slice: "a", Metric: "n", Element: "y"})
	got := s.Slices()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("slices = %v", got)
	}
}

func TestAgentToCollector(t *testing.T) {
	store := NewStore(0)
	col, err := NewCollector("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	ag, err := NewAgent(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()

	for theta := 0; theta < 5; theta++ {
		if err := ag.Send(Sample{
			Slice: "uRLLC1", Metric: "load_mbps", Element: "link3",
			Epoch: 7, Theta: theta, Value: float64(10 + theta),
		}); err != nil {
			t.Fatal(err)
		}
	}

	// UDP delivery is asynchronous; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if peak, ok := store.EpochPeak("uRLLC1", "load_mbps", 7); ok && peak == 14 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	peak, ok := store.EpochPeak("uRLLC1", "load_mbps", 7)
	t.Fatalf("samples not collected in time: peak=%v ok=%v len=%d", peak, ok, store.Len())
}

func TestCollectorDropsGarbage(t *testing.T) {
	store := NewStore(0)
	col, err := NewCollector("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	ag, err := NewAgent(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()
	if _, err := ag.conn.Write([]byte("not json at all")); err != nil {
		t.Fatal(err)
	}
	if err := ag.Send(Sample{Slice: "s", Metric: "m", Element: "x", Epoch: 1, Value: 2}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if store.Len() == 1 && col.Dropped() == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("collector state: stored=%d dropped=%d", store.Len(), col.Dropped())
}

func TestConcurrentIngest(t *testing.T) {
	s := NewStore(0)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				s.Add(Sample{Slice: "s", Metric: "m", Element: string(rune('a' + g)), Epoch: i, Value: 1})
				s.EpochPeak("s", "m", i)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if s.Len() != 8*200 {
		t.Errorf("stored %d, want 1600", s.Len())
	}
}

func TestBadCollectorAddr(t *testing.T) {
	if _, err := NewCollector("not-an-addr:xyz", NewStore(0)); err == nil {
		t.Error("expected resolve error")
	}
}

func TestElementEpochSamples(t *testing.T) {
	s := NewStore(0)
	// Ingest out of order across elements, thetas and epochs.
	for _, sm := range []Sample{
		{Slice: "u1", Metric: LoadMetric, Element: BSElement(1), Epoch: 3, Theta: 1, Value: 7},
		{Slice: "u1", Metric: LoadMetric, Element: BSElement(0), Epoch: 3, Theta: 2, Value: 5},
		{Slice: "u1", Metric: LoadMetric, Element: BSElement(0), Epoch: 3, Theta: 0, Value: 9},
		{Slice: "u1", Metric: LoadMetric, Element: BSElement(0), Epoch: 4, Theta: 0, Value: 1},
		{Slice: "u2", Metric: LoadMetric, Element: BSElement(0), Epoch: 3, Theta: 0, Value: 2},
		{Slice: "u1", Metric: "cpu_cores", Element: BSElement(0), Epoch: 3, Theta: 0, Value: 3},
	} {
		s.Add(sm)
	}

	// Deterministic theta order regardless of ingest order; other epochs,
	// slices and metrics filtered out.
	one := s.ElementEpochSamples("u1", LoadMetric, BSElement(0), 3)
	if len(one) != 2 || one[0].Value != 9 || one[1].Value != 5 {
		t.Fatalf("ElementEpochSamples wrong: %+v", one)
	}
	if got := s.ElementEpochSamples("u1", LoadMetric, BSElement(1), 3); len(got) != 1 || got[0].Value != 7 {
		t.Fatalf("bs1 samples wrong: %+v", got)
	}
	if got := s.ElementEpochSamples("u1", LoadMetric, BSElement(7), 3); len(got) != 0 {
		t.Fatalf("samples for an element never written: %+v", got)
	}
}

// elementEpochSamplesRef is ElementEpochSamples as it was before the
// tail-scan: a full forward scan of the series and a reflection-based sort.
// Kept as the reference the fast read must equal element for element.
func elementEpochSamplesRef(s *Store, slice, metric, element string, epoch int) []Sample {
	s.mu.RLock()
	var out []Sample
	for _, sm := range s.series[key{slice, metric, element}] {
		if sm.Epoch == epoch {
			out = append(out, sm)
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Theta != out[j].Theta {
			return out[i].Theta < out[j].Theta
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// TestElementEpochSamplesMatchesFullScan drives the tail-scan read and the
// old full-scan read over the same stores — epoch-ordered series with
// shuffled slots and tied (theta, value) pairs, a series trimmed by
// retention, and series that received late samples for older epochs (which
// must take the full-scan fallback) — and requires identical slices,
// nil-ness included, for every epoch in and around the stored range.
func TestElementEpochSamplesMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 60; trial++ {
		s := NewStore(1 + rng.Intn(80))
		lateEvery := 0 // 0: strictly epoch-ordered ingest
		if trial%3 == 2 {
			lateEvery = 2 + rng.Intn(9)
		}
		epochs := 1 + rng.Intn(12)
		n := 0
		for e := 0; e < epochs; e++ {
			for k, slots := 0, rng.Intn(9); k < slots; k++ {
				sm := Sample{Slice: "s", Metric: LoadMetric, Element: BSElement(trial % 2),
					Epoch: e, Theta: rng.Intn(4), Value: float64(rng.Intn(3))}
				if n++; lateEvery > 0 && n%lateEvery == 0 {
					sm.Epoch = rng.Intn(e + 1)
				}
				s.Add(sm)
			}
		}
		for e := -1; e <= epochs; e++ {
			for _, el := range []string{"bs0", "bs1"} {
				got := s.ElementEpochSamples("s", LoadMetric, el, e)
				want := elementEpochSamplesRef(s, "s", LoadMetric, el, e)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (retain %d, late every %d) %s epoch %d:\n got  %v\n want %v",
						trial, s.retain, lateEvery, el, e, got, want)
				}
			}
		}
	}
}

func TestBSElementNames(t *testing.T) {
	for _, b := range []int{0, 7, 23, len(bsElements) - 1, len(bsElements), 1055, -1} {
		if got, want := BSElement(b), fmt.Sprintf("bs%d", b); got != want {
			t.Errorf("BSElement(%d) = %q, want %q", b, got, want)
		}
	}
}
