package ctrlplane

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/topology"
	"repro/internal/wal"
)

// The failover stress gate, built for -race: tenants register concurrently
// with the epoch loop, topology flips land mid-run, and a standby tails
// the leader's WAL on a hot 1ms loop while all of it races. The leader is
// then hard-killed and the standby promoted in place. No byte-comparison
// here — the reference-equality pin is TestFailoverMatchesUninterrupted —
// this test asserts decision conservation across the crash: nothing
// decided twice, nothing both accepted and rejected, expiries only of
// accepted slices, and the promoted standby adopting exactly the
// accepted-and-still-alive set.

// raceLedger accumulates decision outcomes across both reigns.
type raceLedger struct {
	accepted map[string]int
	rejected map[string]int
	expired  map[string]int
}

func newRaceLedger() *raceLedger {
	return &raceLedger{accepted: map[string]int{}, rejected: map[string]int{}, expired: map[string]int{}}
}

func (l *raceLedger) absorb(rep *EpochReport) {
	for _, n := range rep.Accepted {
		l.accepted[n]++
	}
	for _, n := range rep.Rejected {
		l.rejected[n]++
	}
	for _, n := range rep.Expired {
		l.expired[n]++
	}
}

// raceEpochs drives epochs on o while submitters and a topology flipper
// race it, then runs one quiet epoch so every registration made during the
// storm is decided before the caller moves on. Returns the names
// registered.
func raceEpochs(t *testing.T, o *Orchestrator, store *monitor.Store, ledger *raceLedger, tag string, epochs int) []string {
	t.Helper()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		names []string
	)
	// Two tenant goroutines racing the epoch loop with small unique slices
	// (tiny rates so capacity rarely pushes back; durations short enough
	// that some expire inside the run).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				typ := "uRLLC"
				if i%2 == 1 {
					typ = "eMBB"
				}
				req := SliceRequest{
					Name: fmt.Sprintf("%s-t%d-s%d", tag, g, i), Type: typ,
					RateMbps: 1 + float64(g), DurationEpochs: 3 + i%3, PenaltyFactor: 1,
				}
				if err := o.Register(req); err != nil {
					t.Errorf("register %s: %v", req.Name, err)
					return
				}
				mu.Lock()
				names = append(names, req.Name)
				mu.Unlock()
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Topology flipper: degrade and restore one BS mid-run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			factor := 0.6
			if i%2 == 1 {
				factor = 1.0
			}
			if err := o.ApplyTopology([]topology.Event{{Kind: topology.EventBS, Index: 1, Factor: factor}}); err != nil {
				t.Errorf("topology flip: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	run := func() {
		rep, err := o.RunEpoch()
		if err != nil {
			t.Fatalf("%s epoch: %v", tag, err)
		}
		ledger.absorb(rep)
		// Feed the active slices' traffic so settlement and forecasting
		// have something to chew on.
		for _, s := range rep.Slices {
			if s.State != "active" {
				continue
			}
			for b := 0; b < topology.Testbed().NumBS(); b++ {
				store.Add(monitor.Sample{
					Slice: s.Name, Metric: monitor.LoadMetric, Element: monitor.BSElement(b),
					Epoch: rep.Epoch, Theta: 0, Value: failoverSample(s.Name, b, rep.Epoch, 0),
				})
			}
		}
	}
	for e := 0; e < epochs; e++ {
		run()
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	run() // quiet epoch: decide the stragglers the storm registered late
	return names
}

func TestFailoverStressRace(t *testing.T) {
	dir := t.TempDir()
	ledger := newRaceLedger()

	ranL, tnL, cloudL := newSouthbound(t)
	storeL := monitor.NewStore(0)
	leader, err := NewOrchestrator(OrchestratorConfig{
		Net: topology.Testbed(), Algorithm: "benders", Store: storeL,
		RANAddr: ranL, TransportAddr: tnL, CloudAddr: cloudL,
		DataDir: dir, SnapshotEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	ranS, tnS, cloudS := newSouthbound(t)
	storeS := monitor.NewStore(0)
	sb, err := NewStandby(OrchestratorConfig{
		Net: topology.Testbed(), Algorithm: "benders", Store: storeS,
		RANAddr: ranS, TransportAddr: tnS, CloudAddr: cloudS,
		DataDir: dir, SnapshotEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tailErr := make(chan error, 1)
	go func() { // a hot tail racing the leader's appends, until promotion
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for ctx.Err() == nil {
			if _, err := sb.Poll(); err != nil {
				sb.mu.Lock()
				promoted := sb.promoted
				sb.mu.Unlock()
				if !promoted {
					tailErr <- err
					return
				}
				break
			}
			<-tick.C
		}
		tailErr <- nil
	}()

	reg1 := raceEpochs(t, leader, storeL, ledger, "p1", 5)
	if t.Failed() {
		t.Fatal("storm goroutine failed; see errors above")
	}

	// Everything registered during the leader's reign is decided by now.
	alive := map[string]bool{}
	for n := range ledger.accepted {
		if ledger.expired[n] == 0 {
			alive[n] = true
		}
	}
	for _, n := range reg1 {
		if ledger.accepted[n]+ledger.rejected[n] == 0 {
			t.Fatalf("slice %s registered under the leader but never decided", n)
		}
	}

	// Hard kill mid-run, promote the hot-tailing standby in place.
	leader.Abort()
	orch2, err := sb.Promote(nil, nil)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	t.Cleanup(func() { orch2.Close() }) //nolint:errcheck // engine teardown
	if err := <-tailErr; err != nil {
		t.Fatalf("standby tail loop: %v", err)
	}

	// The promoted standby adopts exactly the accepted-and-unexpired set;
	// nothing pending survives a crash (their acks never went out).
	adopted := map[string]bool{}
	for _, s := range orch2.Statuses() {
		switch s.State {
		case "active":
			adopted[s.Name] = true
		case "pending":
			t.Fatalf("slice %s pending after promotion; undecided intake must die with the leader", s.Name)
		}
	}
	for n := range alive {
		if !adopted[n] {
			t.Fatalf("accepted slice %s lost in failover (adopted: %v)", n, adopted)
		}
	}
	for n := range adopted {
		if !alive[n] {
			t.Fatalf("slice %s materialized out of nowhere after failover", n)
		}
	}

	// Second reign: the same storm against the promoted standby, at once —
	// its rounds must log to the store installed at promotion.
	lsn, _ := sb.Progress() // where promotion left the log
	raceEpochs(t, orch2, storeS, ledger, "p2", 4)
	if t.Failed() {
		t.Fatal("storm goroutine failed; see errors above")
	}
	if got := logEnd(t, dir); got < lsn+5 {
		t.Fatalf("log moved from LSN %d to %d over 5 epochs of the second reign; rounds are not reaching the promoted store", lsn, got)
	}
	// And what they logged is the state: kill the promoted orchestrator, and
	// a fresh recovery of the directory adopts exactly what it held.
	held := map[string]bool{}
	for _, s := range orch2.Statuses() {
		if s.State == "active" {
			held[s.Name] = true
		}
	}
	orch2.Abort()
	orch3, err := NewOrchestrator(OrchestratorConfig{
		Net: topology.Testbed(), Algorithm: "benders", Store: monitor.NewStore(0),
		RANAddr: ranS, TransportAddr: tnS, CloudAddr: cloudS,
		DataDir: dir, SnapshotEvery: 2,
	})
	if err != nil {
		t.Fatalf("recovering the second reign: %v", err)
	}
	defer orch3.Close() //nolint:errcheck // engine teardown
	recovered := map[string]bool{}
	for _, s := range orch3.Statuses() {
		recovered[s.Name] = true
	}
	if !reflect.DeepEqual(recovered, held) {
		t.Fatalf("recovery of the promoted orchestrator's log adopted %v, it held %v", recovered, held)
	}

	// Conservation across the crash: one decision per slice, ever.
	for n, c := range ledger.accepted {
		if c > 1 {
			t.Errorf("slice %s accepted %d times", n, c)
		}
		if ledger.rejected[n] > 0 {
			t.Errorf("slice %s both accepted and rejected", n)
		}
	}
	for n, c := range ledger.rejected {
		if c > 1 {
			t.Errorf("slice %s rejected %d times", n, c)
		}
	}
	for n := range ledger.expired {
		if ledger.accepted[n] == 0 {
			t.Errorf("slice %s expired without ever being accepted", n)
		}
		if ledger.expired[n] > 1 {
			t.Errorf("slice %s expired %d times", n, ledger.expired[n])
		}
	}
}

// logEnd tails the log in dir to its end and returns the LSN the next
// record will get.
func logEnd(t *testing.T, dir string) uint64 {
	t.Helper()
	tail, err := wal.OpenTailer(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	for {
		recs, err := tail.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			return tail.NextLSN()
		}
	}
}
