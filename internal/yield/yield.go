package yield

import (
	"slices"
	"strings"
	"sync"
)

// violationEps is the slack below which a reservation deficit is treated as
// numerical noise rather than an SLA violation. It matches the tolerance
// the simulator has always used, so refactoring the accounting onto this
// package cannot move a single violation count.
const violationEps = 1e-9

// Assessment scores one slice's monitored samples for one epoch against
// the per-BS reservation that was in force. Feed every monitoring sample
// through Sample, then read the epoch's violation count, dropped SLA
// fraction, and realized revenue. Not safe for concurrent use; each
// (slice, epoch) gets its own Assessment.
type Assessment struct {
	lam      float64 // Λ: the SLA bitrate demand is clipped to
	samples  int
	violated int
	dropSum  float64 // Σ deficit/Λ over violated samples
}

// NewAssessment starts an epoch assessment for a slice with SLA bitrate
// lamMbps (Λ, per radio site).
func NewAssessment(lamMbps float64) *Assessment {
	return &Assessment{lam: lamMbps}
}

// Sample books one monitoring observation: load is the measured demand at
// one element during one monitoring slot, reserved the reservation z held
// there. Demand beyond the SLA is the tenant's own excess and never counts
// as a violation (the paper's in-SLA clipping); a reservation deficit on
// in-SLA demand is a violation whose dropped fraction accumulates.
func (a *Assessment) Sample(load, reserved float64) {
	inSLA := load
	if inSLA > a.lam {
		inSLA = a.lam
	}
	if deficit := inSLA - reserved; deficit > violationEps {
		a.violated++
		a.dropSum += deficit / a.lam
	}
	a.samples++
}

// Violated returns the number of violated samples so far.
func (a *Assessment) Violated() int { return a.violated }

// Samples returns the number of samples booked so far.
func (a *Assessment) Samples() int { return a.samples }

// DroppedFrac returns the epoch's mean dropped SLA fraction over all
// booked samples (0 when nothing was booked).
func (a *Assessment) DroppedFrac() float64 {
	if a.samples == 0 {
		return 0
	}
	return a.dropSum / float64(a.samples)
}

// Realized returns the epoch's realized net revenue under the paper's
// penalty design: reward R minus K·(dropped fraction), so with K = m·R a
// slice that loses a fraction f of its SLA pays f·m of its reward back.
func (a *Assessment) Realized(reward, penalty float64) float64 {
	return reward - penalty*a.DroppedFrac()
}

// Entry renders the assessment as one ledger line for the given slice and
// epoch, pricing it with the slice's commercial terms.
func (a *Assessment) Entry(slice string, epoch int, reward, penalty float64) Entry {
	return Entry{
		Slice:    slice,
		Epoch:    epoch,
		Reward:   reward,
		Penalty:  penalty * a.DroppedFrac(),
		Realized: a.Realized(reward, penalty),
		Violated: a.violated,
		Samples:  a.samples,
		Dropped:  a.DroppedFrac(),
	}
}

// Entry is one (slice, epoch) line of the ledger.
type Entry struct {
	Slice string `json:"slice"`
	Epoch int    `json:"epoch"`
	// Reward is the full epoch reward R; Penalty the booked penalty K·f;
	// Realized their difference.
	Reward   float64 `json:"reward"`
	Penalty  float64 `json:"penalty"`
	Realized float64 `json:"realized"`
	// Violated / Samples count monitoring samples; Dropped is the mean
	// dropped SLA fraction over the epoch's samples.
	Violated int     `json:"violated"`
	Samples  int     `json:"samples"`
	Dropped  float64 `json:"dropped"`
}

// SliceTotals aggregates one slice's ledger lines.
type SliceTotals struct {
	Slice    string  `json:"slice"`
	Epochs   int     `json:"epochs"`
	Reward   float64 `json:"reward"`
	Penalty  float64 `json:"penalty"`
	Realized float64 `json:"realized"`
	Violated int     `json:"violated"`
	Samples  int     `json:"samples"`
}

// Summary is a consistent snapshot of a Ledger.
type Summary struct {
	// Realized = Reward − Penalty over every booked entry: the paper's net
	// yield, measured.
	Realized float64 `json:"realized"`
	Reward   float64 `json:"reward"`
	Penalty  float64 `json:"penalty"`
	// Expected totals the solver-side estimates (−Ψ) booked per decision
	// round; ExpectedRounds counts them. Realized − Expected is the
	// forecaster's pricing error made visible.
	Expected       float64 `json:"expected"`
	ExpectedRounds int     `json:"expected_rounds"`
	// Entries counts booked (slice, epoch) lines; Violated/Samples count
	// monitoring samples; ViolationProb is their ratio (the §4.3.3
	// footprint metric).
	Entries       int     `json:"entries"`
	Violated      int     `json:"violated"`
	Samples       int     `json:"samples"`
	ViolationProb float64 `json:"violation_prob"`
	// PerSlice is sorted by slice name, so two ledgers fed the same books
	// in any order snapshot identically. Totals leaves it nil.
	PerSlice []SliceTotals `json:"per_slice,omitempty"`
}

// Ledger is the running revenue account. Safe for concurrent use. Totals
// are accumulated per slice (realized side) and per source (expected
// side), each kept in a slice sorted by name, and every read folds them in
// that order, so the booking interleave ACROSS slices and sources never
// affects a read — only the order within one key does, and every in-tree
// booker is serial per key: the closed-loop controller books a slice's
// entries in epoch order, and an admission domain's rounds (one expected
// booking each) execute serially on its one shard. A booking finds its
// line by binary search and inserts it on first sight, so no read sorts.
type Ledger struct {
	mu             sync.Mutex
	perSlice       []SliceTotals   // sorted by Slice
	expected       []ExpectedTotal // sorted by Source
	expectedRounds int
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// sliceLine returns the slice's line, inserting a zero one in name order on
// first sight. Caller holds l.mu.
func (l *Ledger) sliceLine(name string) *SliceTotals {
	i, ok := slices.BinarySearchFunc(l.perSlice, name, func(st SliceTotals, n string) int {
		return strings.Compare(st.Slice, n)
	})
	if !ok {
		l.perSlice = slices.Insert(l.perSlice, i, SliceTotals{Slice: name})
	}
	return &l.perSlice[i]
}

// sourceLine is sliceLine for the expected side. Caller holds l.mu.
func (l *Ledger) sourceLine(source string) *ExpectedTotal {
	i, ok := slices.BinarySearchFunc(l.expected, source, func(e ExpectedTotal, s string) int {
		return strings.Compare(e.Source, s)
	})
	if !ok {
		l.expected = slices.Insert(l.expected, i, ExpectedTotal{Source: source})
	}
	return &l.expected[i]
}

// Book adds one entry to the account.
func (l *Ledger) Book(e Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.sliceLine(e.Slice)
	st.Epochs++
	st.Reward += e.Reward
	st.Penalty += e.Penalty
	st.Realized += e.Realized
	st.Violated += e.Violated
	st.Samples += e.Samples
}

// BookExpected adds one decision round's solver-estimated net revenue
// (core.Decision.Revenue(), the −Ψ of the AC-RR objective) under the
// given source key — the admission domain, for engine-booked rounds.
// Per-source accumulation is what keeps Summary.Expected reproducible
// when several domains' rounds book concurrently.
func (l *Ledger) BookExpected(source string, v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sourceLine(source).Value += v
	l.expectedRounds++
}

// ExpectedTotal is one booking source's accumulated expected revenue in a
// LedgerState.
type ExpectedTotal struct {
	Source string  `json:"source"`
	Value  float64 `json:"value"`
}

// LedgerState is the durable image of a Ledger, the form the crash-recovery
// snapshot (internal/wal) persists: per-slice totals and per-source expected
// accumulators, each sorted by key so two equal ledgers export byte-equal
// states.
type LedgerState struct {
	PerSlice       []SliceTotals   `json:"per_slice,omitempty"`
	Expected       []ExpectedTotal `json:"expected,omitempty"`
	ExpectedRounds int             `json:"expected_rounds"`
}

// ExportState captures the ledger's full account.
func (l *Ledger) ExportState() LedgerState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LedgerState{
		PerSlice:       append([]SliceTotals(nil), l.perSlice...),
		Expected:       append([]ExpectedTotal(nil), l.expected...),
		ExpectedRounds: l.expectedRounds,
	}
}

// RestoreState replaces the ledger's account with the exported one. A
// ledger restored from a state and the ledger that exported it read
// identically. The state's lines may come in any order; of two lines with
// one key, the later wins.
func (l *Ledger) RestoreState(st LedgerState) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.perSlice, l.expected = nil, nil
	for _, line := range st.PerSlice {
		*l.sliceLine(line.Slice) = line
	}
	for _, e := range st.Expected {
		*l.sourceLine(e.Source) = e
	}
	l.expectedRounds = st.ExpectedRounds
}

// Totals returns the account's totals without its per-slice lines — what
// an operator polls. It allocates nothing.
func (l *Ledger) Totals() Summary {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totalsLocked()
}

// Snapshot returns the current account with its per-slice lines, sorted by
// name.
func (l *Ledger) Snapshot() Summary {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.totalsLocked()
	s.PerSlice = append([]SliceTotals(nil), l.perSlice...)
	return s
}

// totalsLocked folds the account: sources in name order, then slices in
// name order. Caller holds l.mu.
func (l *Ledger) totalsLocked() Summary {
	s := Summary{ExpectedRounds: l.expectedRounds}
	for _, e := range l.expected {
		s.Expected += e.Value
	}
	for _, st := range l.perSlice {
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
