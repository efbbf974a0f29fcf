package wal

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/slice"
	"repro/internal/topology"
	"repro/internal/yield"
)

// The refinement behind side-by-side replay, driven on purpose: whatever
// schedule the per-domain lanes take must be a trace of the LSN-serial
// replay, so recovering one log record by record, lane after lane on one
// processor and side by side on several must end in the same Report, the
// same log end and the same bytes of engine and ledger state.

const laneDomains = 8

func laneDomainNames() []string {
	names := make([]string, laneDomains)
	for i := range names {
		names[i] = fmt.Sprintf("d%d", i)
	}
	return names
}

// newLaneEngine builds an un-started engine over laneDomains Testbed
// domains sharing one ledger.
func newLaneEngine(t testing.TB, st *Store) (*admission.Engine, *yield.Ledger) {
	t.Helper()
	led := yield.NewLedger()
	eng := admission.New(admission.Config{Log: st, Ledger: led, Shards: 2, QueueDepth: 1024})
	for _, d := range laneDomainNames() {
		if err := eng.AddDomain(d, admission.DomainConfig{Net: topology.Testbed()}); err != nil {
			t.Fatal(err)
		}
	}
	return eng, led
}

// writeLaneLog serves a seeded run into dir and kills it: every domain
// steps forecasts → round → advance, and which domain moves next is drawn
// at random, so the log interleaves the domains record by record while each
// keeps its own order. Topology events land in between.
// The run ends the way a crash can leave it: one domain's last round has no
// advance behind it, and another's next forecasts reached disk without their
// round. Returns the rounds logged and the two domains left half-done.
func writeLaneLog(t testing.TB, dir string, seed int64) (rounds int, noAdvance, prefixOnly string) {
	t.Helper()
	st, _, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := newLaneEngine(t, st)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	types := []slice.Type{slice.EMBB, slice.URLLC, slice.MMTC}
	domains := laneDomainNames()

	forecasts := func(dom string) {
		names, err := eng.Committed(dom)
		if err != nil {
			t.Fatal(err)
		}
		ups := make([]admission.ForecastUpdate, len(names))
		for i, n := range names {
			ups[i] = admission.ForecastUpdate{Name: n, LambdaHat: 1 + 9*rng.Float64(), Sigma: 0.2 + 0.8*rng.Float64()}
		}
		if err := eng.UpdateForecasts(dom, ups); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	round := func(dom string) {
		for k, n := 0, 1+rng.Intn(3); k < n; k++ {
			req := admission.Request{
				Domain: dom, Name: fmt.Sprintf("%s-r%d", dom, next),
				SLA: slice.SLA{Template: slice.Table1(types[rng.Intn(len(types))]), Duration: 2 + rng.Intn(3)}.WithPenaltyFactor(1),
			}
			next++
			if _, err := eng.Submit(req); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.DecideRound(dom); err != nil {
			t.Fatal(err)
		}
		rounds++
	}
	advance := func(dom string) {
		if _, err := eng.Advance(dom); err != nil {
			t.Fatal(err)
		}
	}
	phase := make([]int, len(domains)) // 3·step + {0: forecasts, 1: round, 2: advance}
	const steps = 6
	left := len(domains) * steps * 3
	for left > 0 {
		i := rng.Intn(len(domains))
		if phase[i] == steps*3 {
			continue
		}
		dom := domains[i]
		switch phase[i] % 3 {
		case 0:
			if rng.Intn(4) == 0 {
				bs, epoch := rng.Intn(topology.Testbed().NumBS()), phase[i]/3
				if err := eng.ApplyTopology(dom, []topology.Event{topology.BSDegrade(epoch, bs, 0.5+0.5*rng.Float64())}); err != nil {
					t.Fatal(err)
				}
			}
			forecasts(dom)
		case 1:
			round(dom)
		case 2:
			advance(dom)
		}
		phase[i]++
		left--
	}

	noAdvance, prefixOnly = domains[2], domains[5]
	forecasts(noAdvance)
	round(noAdvance)
	if names, _ := eng.Committed(prefixOnly); len(names) == 0 {
		t.Fatalf("domain %s has nothing committed to forecast; pick another seed", prefixOnly)
	}
	forecasts(prefixOnly)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	eng.Stop()
	st.Abort()
	return rounds, noAdvance, prefixOnly
}

// recoverLaneLog recovers a private copy of the log in src (recovery
// truncates and appends) and renders what it built. procs == 0 is the
// specification: one processor and the records fed one Ingest each, which is
// the replay in LSN order. Otherwise Recover takes the whole suffix as one
// batch at that GOMAXPROCS.
func recoverLaneLog(t testing.TB, src string, procs int) (rep *Report, end uint64, state string, err error) {
	t.Helper()
	dir := t.TempDir()
	files, rerr := os.ReadDir(src)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, f := range files {
		raw, rerr := os.ReadFile(filepath.Join(src, f.Name()))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if werr := os.WriteFile(filepath.Join(dir, f.Name()), raw, 0o644); werr != nil {
			t.Fatal(werr)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(procs, 1)))

	st, rec, oerr := Open(Options{Dir: dir, NoSync: true})
	if oerr != nil {
		t.Fatal(oerr)
	}
	defer st.Close()
	eng, led := newLaneEngine(t, st)
	if procs > 0 {
		rep, err = Recover(st, rec, Target{Engine: eng, Ledger: led})
	} else {
		r, nerr := NewReplayer(Target{Engine: eng, Ledger: led})
		if nerr != nil {
			t.Fatal(nerr)
		}
		st.setRecovering(true)
		for _, pr := range rec.Records {
			if err = r.Ingest(pr); err != nil {
				break
			}
		}
		st.setRecovering(false)
		if err == nil {
			rep, err = r.Finalize(st, nil)
		}
	}
	if err != nil {
		return nil, 0, "", err
	}
	var b strings.Builder
	for _, d := range laneDomainNames() {
		ds, xerr := eng.ExportDomain(d)
		if xerr != nil {
			t.Fatal(xerr)
		}
		raw, _ := json.Marshal(ds)
		b.Write(raw)
		b.WriteByte('\n')
	}
	raw, _ := json.Marshal(led.ExportState())
	b.Write(raw)
	return rep, st.LSN(), b.String(), nil
}

// laneProcs is the processor count the side-by-side recoveries run at: the
// test binary's (-cpu 1,2,4 in make recover-check), but never fewer than
// two, so the lanes run on more than the caller's goroutine even on a
// one-processor box.
func laneProcs() int { return max(runtime.GOMAXPROCS(0), 2) }

func TestParallelReplayMatchesSerial(t *testing.T) {
	src := t.TempDir()
	rounds, noAdvance, prefixOnly := writeLaneLog(t, src, 19)

	want, wantEnd, wantState, err := recoverLaneLog(t, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The log has the shape the test is about.
	if want.Rounds != rounds || want.HeldBack != 1 || !reflect.DeepEqual(want.CompletedAdvance, []string{noAdvance}) {
		t.Fatalf("serial recovery report %+v, want %d rounds, 1 record held back (%s's forecasts) and %s's advance completed",
			*want, rounds, prefixOnly, noAdvance)
	}
	if !strings.Contains(wantState, `"topo_events":[{`) {
		t.Fatal("no topology event survived into the recovered state; the log does not exercise them")
	}

	for _, procs := range []int{1, laneProcs(), laneProcs(), laneProcs()} {
		got, gotEnd, gotState, err := recoverLaneLog(t, src, procs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, *want) {
			t.Fatalf("GOMAXPROCS=%d: report %+v, serial %+v", procs, *got, *want)
		}
		if gotEnd != wantEnd {
			t.Fatalf("GOMAXPROCS=%d: log ends at LSN %d, serial at %d", procs, gotEnd, wantEnd)
		}
		if gotState != wantState {
			t.Fatalf("GOMAXPROCS=%d: recovered state differs from the serial recovery's:\n got  %s\n want %s", procs, gotState, wantState)
		}
	}
}

// TestParallelReplayReturnsLowestLSNError plants two diverged rounds (a
// sequence number the domain is not at) in different lanes. The later one
// is the first record of its lane and fails at once; the earlier one sits
// behind real rounds. Whatever order the lanes hit them in, recovery must
// stop with the error the serial replay meets first.
func TestParallelReplayReturnsLowestLSNError(t *testing.T) {
	src := t.TempDir()
	w, _, err := Open(Options{Dir: src, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	domains := laneDomainNames()
	round := func(dom string, seq uint64) {
		r := *testRecord(int(seq))
		r.Domain = dom
		r.Batch[0].Name = fmt.Sprintf("%s-%d", dom, seq)
		if err := w.append(&r); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint64(0); seq < 3; seq++ {
		for _, d := range domains[:4] {
			round(d, seq)
			if err := w.append(&Record{Kind: KindAdvance, Domain: d}); err != nil {
				t.Fatal(err)
			}
		}
	}
	firstBad := w.LSN()
	round(domains[1], 99) // behind three real rounds of its lane
	round(domains[6], 7)  // its lane's first record
	round(domains[0], 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	want := fmt.Sprintf("wal: replay at LSN %d:", firstBad)
	for _, procs := range []int{0, 1, laneProcs()} {
		for rep := 0; rep < 3; rep++ {
			_, _, _, err := recoverLaneLog(t, src, procs)
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("GOMAXPROCS=%d: Recover = %v, want the error at the lowest LSN (%q…)", procs, err, want)
			}
		}
	}
}

// TestReplayRefusesUnknownKind: no record kind moves a slice between
// domains. The Store refuses to write one, and a log that holds one anyway
// fails replay at its LSN as an unknown kind instead of skipping it.
func TestReplayRefusesUnknownKind(t *testing.T) {
	src := t.TempDir()
	w, _, err := Open(Options{Dir: src, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	dom := laneDomainNames()[0]
	if err := w.AppendAdvance(dom); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendHandover(dom, laneDomainNames()[1], "s"); err == nil || w.LSN() != 1 {
		t.Fatalf("AppendHandover = %v with the log at LSN %d; want a refusal and LSN 1", err, w.LSN())
	}
	if err := w.append(&Record{Kind: "handover", Domain: dom}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{0, laneProcs()} {
		_, _, _, err := recoverLaneLog(t, src, procs)
		if err == nil || !strings.Contains(err.Error(), `wal: replay at LSN 1: wal: unknown record kind "handover"`) {
			t.Fatalf("GOMAXPROCS=%d: Recover = %v, want the unknown kind at LSN 1", procs, err)
		}
	}
}
