package monitor

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

// peakOf is the §2.2.2 max-aggregation max{λ(θ) | θ ∈ κ(t)} over the keyed
// reads of the listed elements, the way internal/reopt's observe phase
// computes it.
func peakOf(s *Store, slice, metric string, epoch int, elements ...string) (float64, bool) {
	peak, ok := 0.0, false
	for _, el := range elements {
		for _, sm := range s.ElementEpochSamples(slice, metric, el, epoch) {
			if !ok || sm.Value > peak {
				peak, ok = sm.Value, true
			}
		}
	}
	return peak, ok
}

func TestStorePeakAggregation(t *testing.T) {
	s := NewStore(0)
	for theta, v := range []float64{10, 42, 17} {
		s.Add(Sample{Slice: "eMBB1", Metric: "load_mbps", Element: "bs0", Epoch: 3, Theta: theta, Value: v})
	}
	// A second element contributes to the same epoch peak.
	s.Add(Sample{Slice: "eMBB1", Metric: "load_mbps", Element: "bs1", Epoch: 3, Theta: 0, Value: 55})

	if peak, ok := peakOf(s, "eMBB1", "load_mbps", 3, "bs0"); !ok || peak != 42 {
		t.Errorf("bs0 peak = %v (%v), want 42", peak, ok)
	}
	if peak, ok := peakOf(s, "eMBB1", "load_mbps", 3, "bs0", "bs1"); !ok || peak != 55 {
		t.Errorf("peak = %v (%v), want 55", peak, ok)
	}
	if _, ok := peakOf(s, "eMBB1", "load_mbps", 4, "bs0", "bs1"); ok {
		t.Error("empty epoch must report no data")
	}
	if _, ok := peakOf(s, "other", "load_mbps", 3, "bs0", "bs1"); ok {
		t.Error("unknown slice must report no data")
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
	if got := s.ElementEpochSamples("s", "m", "x", 89); got != nil {
		t.Errorf("epoch 89 should have been evicted: %v", got)
	}
	for e := 90; e < 100; e++ {
		if got := s.ElementEpochSamples("s", "m", "x", e); len(got) != 1 {
			t.Errorf("epoch %d: %v, want its one sample", e, got)
		}
	}
	// The ring is grown, never pre-sized: a default store's short series
	// holds a handful of points, not 4096.
	d := NewStore(0)
	for i := 0; i < 5; i++ {
		d.Add(Sample{Slice: "s", Metric: "m", Element: "x", Epoch: i})
	}
	if c := cap(d.series[key{"s", "m", "x"}].buf); c > 8 {
		t.Errorf("a 5-sample series holds %d points of storage", c)
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

// dialCollector opens the socket a data-plane agent publishes on: one
// JSON-encoded Sample per UDP datagram to the collector's address.
func dialCollector(t *testing.T, col *Collector) net.Conn {
	t.Helper()
	conn, err := net.Dial("udp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func publish(t *testing.T, conn net.Conn, sm Sample) {
	t.Helper()
	b, err := json.Marshal(sm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
}

func TestAgentToCollector(t *testing.T) {
	store := NewStore(0)
	col, err := NewCollector("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	agent := dialCollector(t, col)
	for theta := 0; theta < 5; theta++ {
		publish(t, agent, Sample{
			Slice: "uRLLC1", Metric: "load_mbps", Element: "link3",
			Epoch: 7, Theta: theta, Value: float64(10 + theta),
		})
	}

	// UDP delivery is asynchronous; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if peak, ok := peakOf(store, "uRLLC1", "load_mbps", 7, "link3"); ok && peak == 14 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	peak, ok := peakOf(store, "uRLLC1", "load_mbps", 7, "link3")
	t.Fatalf("samples not collected in time: peak=%v ok=%v len=%d", peak, ok, store.Len())
}

func TestCollectorDropsGarbage(t *testing.T) {
	store := NewStore(0)
	col, err := NewCollector("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	agent := dialCollector(t, col)
	if _, err := agent.Write([]byte("not json at all")); err != nil {
		t.Fatal(err)
	}
	publish(t, agent, Sample{Slice: "s", Metric: "m", Element: "x", Epoch: 1, Value: 2})

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
			var dst []float64
			for i := 0; i < 200; i++ {
				s.Add(Sample{Slice: "s", Metric: "m", Element: string(rune('a' + g)), Epoch: i, Value: 1})
				s.ElementEpochSamples("s", "m", string(rune('a'+g)), i)
				dst = s.AppendEpochValues(dst[:0], "s", "m", string(rune('a'+g)), i)
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

// refStore is the store as it was before the ring: every series a slice of
// whole Samples re-sliced forward past retain, read by a full forward scan
// and a reflection-based sort. Kept as the reference the ring's reads must
// equal element for element.
type refStore struct {
	retain int
	series map[key][]Sample
}

func (s *refStore) add(sm Sample) {
	k := key{sm.Slice, sm.Metric, sm.Element}
	ser := append(s.series[k], sm)
	if len(ser) > s.retain {
		ser = ser[len(ser)-s.retain:]
	}
	s.series[k] = ser
}

func (s *refStore) elementEpochSamples(slice, metric, element string, epoch int) []Sample {
	var out []Sample
	for _, sm := range s.series[key{slice, metric, element}] {
		if sm.Epoch == epoch {
			out = append(out, sm)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Theta != out[j].Theta {
			return out[i].Theta < out[j].Theta
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// TestElementEpochSamplesMatchesFullScan drives the ring and the old
// slice-of-Samples store with the same ingest — epoch-ordered series with
// shuffled slots and tied (theta, value) pairs, retentions small enough that
// the ring wraps many times and windows straddle its head, late and duplicate
// samples (which take the full-scan path until they leave the window) — and
// requires identical reads, nil-ness included, after every epoch's ingest for
// every epoch in and around the stored range.
func TestElementEpochSamplesMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	retains := []int{1, 2, 7, 48}
	for trial := 0; trial < 80; trial++ {
		retain := 1 + rng.Intn(80)
		if trial < 2*len(retains) {
			retain = retains[trial/2]
		}
		s, ref := NewStore(retain), &refStore{retain: retain, series: map[key][]Sample{}}
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
				ref.add(sm)
				if rng.Intn(8) == 0 { // a duplicate datagram
					s.Add(sm)
					ref.add(sm)
				}
			}
			for q := -1; q <= epochs; q++ {
				for _, el := range []string{"bs0", "bs1"} {
					want := ref.elementEpochSamples("s", LoadMetric, el, q)
					if got := s.ElementEpochSamples("s", LoadMetric, el, q); !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d (retain %d, late every %d) after epoch %d, %s epoch %d:\n got  %v\n want %v",
							trial, retain, lateEvery, e, el, q, got, want)
					}
				}
			}
		}
	}
}

// TestAppendEpochValuesMatchesSamples: the closed loop's read is
// ElementEpochSamples projected onto Value, bit for bit, under random ingest
// orders (slots shuffled within an epoch, so most reads take the sort path),
// equal-θ ties between equal values of either sign, late points, rings that
// wrap, and a destination buffer reused across reads that still holds the
// previous read and a kept prefix.
func TestAppendEpochValuesMatchesSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	values := []float64{0, math.Copysign(0, -1), 1, 2}
	sorted := 0
	for trial := 0; trial < 120; trial++ {
		s := NewStore(1 + rng.Intn(60))
		els := []string{BSElement(0), BSElement(1)}
		dst := []float64{-7}
		for e := 0; e < 1+rng.Intn(10); e++ {
			for _, el := range els {
				slots := rng.Perm(1 + rng.Intn(8))
				for _, theta := range slots {
					sm := Sample{Slice: "s", Metric: LoadMetric, Element: el, Epoch: e, Theta: theta % 3, Value: values[rng.Intn(len(values))]}
					if rng.Intn(7) == 0 { // a late point
						sm.Epoch = rng.Intn(e + 1)
					}
					s.Add(sm)
				}
			}
			for q := -1; q <= e+1; q++ {
				for _, el := range els {
					want := s.ElementEpochSamples("s", LoadMetric, el, q)
					dst = s.AppendEpochValues(dst[:1], "s", LoadMetric, el, q)
					if len(dst) != 1+len(want) || math.Float64bits(dst[0]) != math.Float64bits(-7) {
						t.Fatalf("trial %d, %s epoch %d: read %v after the kept prefix, want %d values", trial, el, q, dst, len(want))
					}
					for i, sm := range want {
						if math.Float64bits(dst[1+i]) != math.Float64bits(sm.Value) {
							t.Fatalf("trial %d, %s epoch %d: values %v, samples %v", trial, el, q, dst[1:], want)
						}
					}
					if !slices.IsSortedFunc(want, func(a, b Sample) int { return cmp.Compare(a.Theta, b.Theta) }) {
						t.Fatalf("trial %d, %s epoch %d: samples out of θ order: %v", trial, el, q, want)
					}
					sorted += len(want)
				}
			}
		}
	}
	if sorted == 0 {
		t.Fatal("no read returned a value; the property is vacuous")
	}
}

// TestLateSampleCostsTheFastPathOneWindow: a sample older than its
// predecessor sends the series' reads down the full scan, but only while it
// can still be in the window — retain ordered inserts later the series reads
// by the tail scan again — and the reads equal the reference throughout.
func TestLateSampleCostsTheFastPathOneWindow(t *testing.T) {
	const retain = 12
	s, ref := NewStore(retain), &refStore{retain: retain, series: map[key][]Sample{}}
	k := key{"s", LoadMetric, "bs0"}
	add := func(epoch, theta int) {
		sm := Sample{Slice: k.slice, Metric: k.metric, Element: k.element, Epoch: epoch, Theta: theta, Value: float64(theta % 3)}
		s.Add(sm)
		ref.add(sm)
	}
	check := func(when string, ordered bool) {
		t.Helper()
		if got := s.series[k].ordered(); got != ordered {
			t.Fatalf("%s: window reads as ordered = %v, want %v", when, got, ordered)
		}
		for e := 0; e <= 12; e++ {
			if got, want := s.ElementEpochSamples(k.slice, k.metric, k.element, e), ref.elementEpochSamples(k.slice, k.metric, k.element, e); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, epoch %d:\n got  %v\n want %v", when, e, got, want)
			}
		}
	}
	for e := 0; e < 5; e++ {
		for theta := 0; theta < 4; theta++ {
			add(e, theta)
		}
	}
	check("epoch-ordered ingest", true)
	add(2, 9) // a reordered datagram
	check("after the late sample", false)
	for i := 0; i < retain-1; i++ {
		add(5+i/4, i%4)
		check("late sample still in the window", false)
	}
	add(5+(retain-1)/4, (retain-1)%4)
	check("retain ordered inserts later", true)
}

// fullStore returns a store whose one series has wrapped its ring, and the
// sample that continues it.
func fullStore() (*Store, Sample) {
	s := NewStore(48)
	sm := Sample{Slice: "s", Metric: LoadMetric, Element: BSElement(0)}
	for sm.Epoch = 0; sm.Epoch < 9; sm.Epoch++ {
		for sm.Theta = 0; sm.Theta < 12; sm.Theta++ {
			sm.Value = float64(sm.Theta)
			s.Add(sm)
		}
	}
	return s, sm
}

// TestStoreAddSteadyStateZeroAllocs: ingest into a series whose ring is full
// overwrites in place.
func TestStoreAddSteadyStateZeroAllocs(t *testing.T) {
	s, sm := fullStore()
	if n := testing.AllocsPerRun(200, func() {
		sm.Theta++
		s.Add(sm)
	}); n != 0 {
		t.Fatalf("Add on a full ring allocates %v times per sample, want 0", n)
	}
}

// TestAppendEpochValuesZeroAllocs: a keyed read into a buffer that has held
// an epoch before allocates nothing, on either side of the ring's head, and
// neither does one whose points arrived out of order once the store's
// scratch has sorted an epoch that size.
func TestAppendEpochValuesZeroAllocs(t *testing.T) {
	s, sm := fullStore()
	for theta := 11; theta >= 0; theta-- { // epoch 9, slots reversed
		s.Add(Sample{Slice: "r", Metric: sm.Metric, Element: sm.Element, Epoch: 9, Theta: theta, Value: float64(theta)})
	}
	for _, read := range []struct {
		slice string
		epoch int
	}{{sm.Slice, 5}, {"r", 9}} {
		epoch := read.epoch
		dst := s.AppendEpochValues(nil, read.slice, sm.Metric, sm.Element, epoch)
		if len(dst) != 12 || !slices.IsSorted(dst) {
			t.Fatalf("%s epoch %d reads %v, want 12 values in θ order", read.slice, epoch, dst)
		}
		if n := testing.AllocsPerRun(200, func() {
			dst = s.AppendEpochValues(dst[:0], read.slice, sm.Metric, sm.Element, epoch)
			if read.slice == sm.Slice {
				epoch = 5 + (epoch-4)%4
			}
		}); n != 0 {
			t.Fatalf("%s: a read into a reused buffer allocates %v times, want 0", read.slice, n)
		}
	}
}

// BenchmarkStoreEpoch replays the closed loop's traffic on the store: per
// epoch, 12 θ of each (slice, BS) series of 6 slices on 4 BSs, ingested
// series by series as World.Play and the benchmark's feed send them, then
// one keyed read per series, as a Controller.Step makes. One op is one
// epoch.
func BenchmarkStoreEpoch(b *testing.B) {
	const nSlices, bss, kappa = 6, 4, 12
	s := NewStore(0)
	var names [nSlices]string
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	var dst []float64
	b.ReportAllocs()
	for epoch := 0; epoch < b.N; epoch++ {
		for _, name := range names {
			for bs := 0; bs < bss; bs++ {
				for theta := 0; theta < kappa; theta++ {
					s.Add(Sample{Slice: name, Metric: LoadMetric, Element: BSElement(bs), Epoch: epoch, Theta: theta, Value: float64(theta)})
				}
			}
		}
		for _, name := range names {
			for bs := 0; bs < bss; bs++ {
				dst = s.AppendEpochValues(dst[:0], name, LoadMetric, BSElement(bs), epoch)
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
