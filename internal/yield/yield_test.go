package yield

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestAssessmentScoresInSLADeficitsOnly(t *testing.T) {
	a := NewAssessment(10)

	a.Sample(4, 5)  // demand under the reservation: fine
	a.Sample(50, 5) // demand beyond the SLA is clipped to Λ=10: deficit 5
	a.Sample(8, 5)  // in-SLA demand 8 over reservation 5: deficit 3
	a.Sample(5, 5)  // exactly met: fine

	if got := a.Samples(); got != 4 {
		t.Fatalf("samples = %d, want 4", got)
	}
	if got := a.Violated(); got != 2 {
		t.Fatalf("violated = %d, want 2", got)
	}
	// dropSum = 5/10 + 3/10 = 0.8 over 4 samples.
	if got, want := a.DroppedFrac(), 0.2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("dropped = %v, want %v", got, want)
	}
	// R=2, K=m·R with m=4 → penalty 8·0.2 = 1.6, realized 0.4.
	if got, want := a.Realized(2, 8), 0.4; math.Abs(got-want) > 1e-12 {
		t.Fatalf("realized = %v, want %v", got, want)
	}

	e := a.Entry("s1", 7, 2, 8)
	if e.Slice != "s1" || e.Epoch != 7 || e.Violated != 2 || e.Samples != 4 {
		t.Fatalf("entry identity fields wrong: %+v", e)
	}
	if math.Abs(e.Reward-e.Penalty-e.Realized) > 1e-12 {
		t.Fatalf("entry does not balance: %+v", e)
	}
}

func TestAssessmentEmptyIsNeutral(t *testing.T) {
	a := NewAssessment(10)
	if a.DroppedFrac() != 0 {
		t.Fatal("empty assessment dropped a fraction")
	}
	if got := a.Realized(3, 12); got != 3 {
		t.Fatalf("empty assessment realized %v, want the full reward", got)
	}
}

// TestLedgerSnapshotInterleaveIndependent books the same per-slice entry
// sequences under two different cross-slice interleaves — round-robin vs
// grouped by slice — and requires bit-identical snapshots: totals live per
// slice and reduce in sorted-name order, so only a slice's own booking
// order (fixed by the epoch sequence) can matter. This is the property the
// closed-loop determinism tests lean on.
func TestLedgerSnapshotInterleaveIndependent(t *testing.T) {
	entries := make([]Entry, 0, 60)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		a := NewAssessment(25)
		for k := 0; k < 12; k++ {
			a.Sample(rng.Float64()*30, 18)
		}
		entries = append(entries, a.Entry([]string{"a", "b", "c"}[i%3], i/3, 2.2, 4.4))
	}

	book := func(perm []int) Summary {
		l := NewLedger()
		for _, i := range perm {
			l.Book(entries[i])
		}
		l.BookExpected("sim", 10.5)
		l.BookExpected("sim", -1.25)
		return l.Snapshot()
	}

	// Round-robin across slices (the construction order) vs grouped by
	// slice; both preserve each slice's own epoch order.
	roundRobin := make([]int, 0, len(entries))
	grouped := make([]int, 0, len(entries))
	for i := range entries {
		roundRobin = append(roundRobin, i)
	}
	for mod := 0; mod < 3; mod++ {
		for i := range entries {
			if i%3 == mod {
				grouped = append(grouped, i)
			}
		}
	}
	s1, s2 := book(roundRobin), book(grouped)

	if len(s1.PerSlice) != 3 || s1.PerSlice[0].Slice != "a" || s1.PerSlice[2].Slice != "c" {
		t.Fatalf("per-slice lines not sorted: %+v", s1.PerSlice)
	}
	// Per-slice totals accumulate per slice and reduce in sorted order, so
	// the two bookings must agree exactly, not just approximately.
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots diverge:\n%+v\n%+v", s1, s2)
	}
	if s1.Expected != 9.25 || s1.ExpectedRounds != 2 {
		t.Fatalf("expected side wrong: %+v", s1)
	}
	if s1.Entries != 60 || s1.Samples != 60*12 {
		t.Fatalf("counts wrong: %+v", s1)
	}
	if s1.ViolationProb != float64(s1.Violated)/float64(s1.Samples) {
		t.Fatalf("violation prob inconsistent: %+v", s1)
	}
}

// TestLedgerConcurrentBookingIsSafe is the race-detector smoke: many
// goroutines booking disjoint slices plus expected-revenue rounds.
func TestLedgerConcurrentBookingIsSafe(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for ep := 0; ep < 50; ep++ {
				a := NewAssessment(10)
				a.Sample(12, 8)
				l.Book(a.Entry(string(rune('a'+g)), ep, 1, 2))
				l.BookExpected(string(rune('a'+g)), 0.5)
			}
		}(g)
	}
	wg.Wait()
	s := l.Snapshot()
	if s.Entries != 400 || s.ExpectedRounds != 400 || len(s.PerSlice) != 8 {
		t.Fatalf("concurrent booking lost entries: %+v", s)
	}
}

// oracleLedger is the ledger as it was before it kept its name order: one
// map per side, every read sorting the keys and then folding sources, then
// slices, in that order. It is the spec Totals, Snapshot and ExportState are
// held to.
type oracleLedger struct {
	perSlice       map[string]*SliceTotals
	expected       map[string]float64
	expectedRounds int
}

func newOracle() *oracleLedger {
	return &oracleLedger{perSlice: map[string]*SliceTotals{}, expected: map[string]float64{}}
}

func (o *oracleLedger) book(e Entry) {
	st := o.perSlice[e.Slice]
	if st == nil {
		st = &SliceTotals{Slice: e.Slice}
		o.perSlice[e.Slice] = st
	}
	st.Epochs++
	st.Reward += e.Reward
	st.Penalty += e.Penalty
	st.Realized += e.Realized
	st.Violated += e.Violated
	st.Samples += e.Samples
}

func (o *oracleLedger) bookExpected(source string, v float64) {
	o.expected[source] += v
	o.expectedRounds++
}

func (o *oracleLedger) sortedKeys() (names, sources []string) {
	for n := range o.perSlice {
		names = append(names, n)
	}
	for src := range o.expected {
		sources = append(sources, src)
	}
	sort.Strings(names)
	sort.Strings(sources)
	return names, sources
}

func (o *oracleLedger) exportState() LedgerState {
	names, sources := o.sortedKeys()
	st := LedgerState{ExpectedRounds: o.expectedRounds}
	for _, n := range names {
		st.PerSlice = append(st.PerSlice, *o.perSlice[n])
	}
	for _, src := range sources {
		st.Expected = append(st.Expected, ExpectedTotal{Source: src, Value: o.expected[src]})
	}
	return st
}

func (o *oracleLedger) restoreState(st LedgerState) {
	o.perSlice = make(map[string]*SliceTotals, len(st.PerSlice))
	for i := range st.PerSlice {
		cp := st.PerSlice[i]
		o.perSlice[cp.Slice] = &cp
	}
	o.expected = make(map[string]float64, len(st.Expected))
	for _, e := range st.Expected {
		o.expected[e.Source] = e.Value
	}
	o.expectedRounds = st.ExpectedRounds
}

func (o *oracleLedger) snapshot() Summary {
	names, sources := o.sortedKeys()
	s := Summary{ExpectedRounds: o.expectedRounds}
	for _, src := range sources {
		s.Expected += o.expected[src]
	}
	for _, n := range names {
		st := *o.perSlice[n]
		s.PerSlice = append(s.PerSlice, st)
		s.Entries += st.Epochs
		s.Reward += st.Reward
		s.Penalty += st.Penalty
		s.Realized += st.Realized
		s.Violated += st.Violated
		s.Samples += st.Samples
	}
	if s.Samples > 0 {
		s.ViolationProb = float64(s.Violated) / float64(s.Samples)
	}
	return s
}

// sameBits fails unless got and want are deeply equal and print alike at
// full precision, which tells apart any two floats with different bits
// (−0 and +0 included) and a nil slice from an empty one.
func sameBits(t *testing.T, what string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) || fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
		t.Fatalf("%s:\n got  %#v\n want %#v", what, got, want)
	}
}

// checkAgainstOracle holds every read of l to the oracle's.
func checkAgainstOracle(t *testing.T, what string, l *Ledger, o *oracleLedger) {
	t.Helper()
	want := o.snapshot()
	sameBits(t, what+": Snapshot", l.Snapshot(), want)
	want.PerSlice = nil
	sameBits(t, what+": Totals", l.Totals(), want)
	sameBits(t, what+": ExportState", l.ExportState(), o.exportState())
}

// TestLedgerRefinesSortThenFold books random streams into a Ledger and into
// the oracle and requires every read to agree bit for bit after every
// booking, and every earlier read to stay as it was. Names share prefixes
// and sort differently as strings and as numbers; values mix magnitudes so
// that folding in any other order would round differently. Each stream ends
// with a RestoreState round trip from a shuffled state (with one duplicated
// line, which the later copy wins) and more bookings on both sides.
func TestLedgerRefinesSortThenFold(t *testing.T) {
	names := []string{"s", "s1", "s10", "s2", "slice-9", "slice-10", "S", "ü", "", "a b"}
	sources := []string{"default", "d1", "d10", "d2", "", "metro-0"}
	value := func(rng *rand.Rand) float64 {
		return (rng.Float64() - 0.3) * math.Pow(10, float64(rng.Intn(33)-16))
	}
	book := func(rng *rand.Rand, l *Ledger, o *oracleLedger) {
		if rng.Intn(3) == 0 {
			src, v := sources[rng.Intn(len(sources))], value(rng)
			l.BookExpected(src, v)
			o.bookExpected(src, v)
			return
		}
		e := Entry{
			Slice: names[rng.Intn(len(names))], Epoch: rng.Intn(100),
			Reward: value(rng), Penalty: value(rng), Realized: value(rng),
			Violated: rng.Intn(5), Samples: rng.Intn(13), Dropped: rng.Float64(),
		}
		l.Book(e)
		o.book(e)
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, o := NewLedger(), newOracle()
		checkAgainstOracle(t, "empty", l, o)
		for i, n := 0, 1+rng.Intn(120); i < n; i++ {
			heldState, heldSnap := l.ExportState(), l.Snapshot()
			wantState, wantSnap := o.exportState(), o.snapshot()
			book(rng, l, o)
			what := fmt.Sprintf("seed %d booking %d", seed, i)
			checkAgainstOracle(t, what, l, o)
			// Reads are copies: a later booking leaves them as they were.
			sameBits(t, what+": ExportState taken before it", heldState, wantState)
			sameBits(t, what+": Snapshot taken before it", heldSnap, wantSnap)
		}

		st := o.exportState()
		rng.Shuffle(len(st.PerSlice), func(i, j int) { st.PerSlice[i], st.PerSlice[j] = st.PerSlice[j], st.PerSlice[i] })
		rng.Shuffle(len(st.Expected), func(i, j int) { st.Expected[i], st.Expected[j] = st.Expected[j], st.Expected[i] })
		if len(st.PerSlice) > 1 {
			stale := st.PerSlice[1]
			stale.Reward++
			st.PerSlice = append([]SliceTotals{stale}, st.PerSlice...)
		}
		l2, o2 := NewLedger(), newOracle()
		l2.Book(Entry{Slice: "dropped by the restore", Reward: 1})
		o2.book(Entry{Slice: "dropped by the restore", Reward: 1})
		l2.RestoreState(st)
		o2.restoreState(st)
		checkAgainstOracle(t, fmt.Sprintf("seed %d restored", seed), l2, o2)
		for i, n := 0, rng.Intn(40); i < n; i++ {
			book(rng, l2, o2)
			checkAgainstOracle(t, fmt.Sprintf("seed %d booking %d after restore", seed, i), l2, o2)
		}
	}
}

// TestTotalsAllocatesNothing pins the read GET /metrics makes on every poll.
func TestTotalsAllocatesNothing(t *testing.T) {
	l := NewLedger()
	for i := 0; i < 50; i++ {
		l.Book(Entry{Slice: fmt.Sprintf("s%d", i), Reward: float64(i), Samples: 12})
		l.BookExpected(fmt.Sprintf("d%d", i%4), 1)
	}
	var s Summary
	if n := testing.AllocsPerRun(100, func() { s = l.Totals() }); n != 0 {
		t.Fatalf("Totals allocates %v times per call, want 0", n)
	}
	if s.Entries != 50 || s.ExpectedRounds != 50 || s.PerSlice != nil {
		t.Fatalf("Totals = %+v", s)
	}
}
