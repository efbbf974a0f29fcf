package admission

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/slice"
	"repro/internal/topology"
	"repro/internal/yield"
)

// refusingLog is a RoundLog double that fails every call.
type refusingLog struct{ err error }

func (l refusingLog) AppendRound(string, uint64, []Request) error    { return l.err }
func (l refusingLog) AppendForecasts(string, []ForecastUpdate) error { return l.err }
func (l refusingLog) AppendAdvance(string) error                     { return l.err }
func (l refusingLog) AppendTopology(string, []topology.Event) error  { return l.err }
func (l refusingLog) SyncRound() error                               { return l.err }

// TestReplayRoundDecidesLikeLive: replaying the logged batches into a fresh
// engine rebuilds every round — names, decision, admissions — and the
// domain's state, and books the same expected revenue, without touching the
// log (the record is already durable) or the executor (recovery must not
// depend on workers): both fail every call here, so reaching either fails
// the replayed round. A wrong seq is refused as divergence, and a started
// engine refuses replay.
func TestReplayRoundDecidesLikeLive(t *testing.T) {
	log := &seqLog{}
	liveLedger := yield.NewLedger()
	live := newTestEngine(t, Config{Log: log, Ledger: liveLedger}, DomainConfig{Algorithm: "direct"})
	var want []*Round
	decide := func(names ...string) {
		t.Helper()
		for i, n := range names {
			ty := []slice.Type{slice.EMBB, slice.URLLC, slice.MMTC}[i%3]
			if _, err := live.Submit(Request{Name: n, SLA: testSLA(ty, 3+i%4)}); err != nil {
				t.Fatal(err)
			}
		}
		r, err := live.DecideRound("")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	decide() // tenantless: an empty decision
	decide("s3", "s1", "s2")
	decide()
	var burst []string
	for i := 0; i < 12; i++ {
		burst = append(burst, fmt.Sprintf("b%02d", 11-i))
	}
	decide(burst...)
	if len(want[3].Rejected) == 0 {
		t.Fatalf("the burst round rejected nothing: %+v; the test needs a rejection", want[3])
	}
	if !reflect.DeepEqual(log.seqs, []uint64{0, 1, 2, 3}) {
		t.Fatalf("logged seqs %v", log.seqs)
	}

	refused := errors.New("replay reached the log")
	replayLedger := yield.NewLedger()
	re := New(Config{Log: refusingLog{refused}, Ledger: replayLedger})
	exec := failingExec{errors.New("replay reached the executor")}
	if err := re.AddDomain("", DomainConfig{Net: topology.Testbed(), Algorithm: "direct", Executor: exec}); err != nil {
		t.Fatal(err)
	}
	for i, batch := range log.batches {
		got, err := re.ReplayRound("", log.seqs[i], batch)
		if err != nil {
			t.Fatalf("replay of round %d: %v", i, err)
		}
		if got.Err != nil {
			t.Fatalf("replayed round %d failed: %v", i, got.Err)
		}
		w := want[i]
		if got.Seq != w.Seq || !reflect.DeepEqual(got.Names, w.Names) || !reflect.DeepEqual(got.Decision, w.Decision) ||
			!reflect.DeepEqual(got.Admitted, w.Admitted) || !reflect.DeepEqual(got.Rejected, w.Rejected) {
			t.Fatalf("replayed round %d\n %+v\nthe live round was\n %+v", i, got, w)
		}
	}
	wantState, err := live.ExportDomain("")
	if err != nil {
		t.Fatal(err)
	}
	gotState, err := re.ExportDomain("")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotState, wantState) {
		t.Fatalf("replayed domain\n %+v\nlive domain\n %+v", gotState, wantState)
	}
	if got, want := replayLedger.ExportState(), liveLedger.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed ledger %+v, live ledger %+v", got, want)
	}

	for _, seq := range []uint64{3, 5} {
		if _, err := re.ReplayRound("", seq, nil); err == nil || !strings.Contains(err.Error(), "diverged") {
			t.Fatalf("replay at seq %d with the domain at 4: %v, want divergence", seq, err)
		}
	}
	if st, _ := re.ExportDomain(""); !reflect.DeepEqual(st, wantState) {
		t.Fatalf("a refused replay changed the domain: %+v", st)
	}
	if err := re.Start(); err != nil {
		t.Fatal(err)
	}
	defer re.Stop()
	if _, err := re.ReplayRound("", 4, nil); err == nil {
		t.Fatal("ReplayRound on a started engine succeeded")
	}
}
