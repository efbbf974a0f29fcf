package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/slice"
	"repro/internal/topology"
)

// TestRaceOutageNoLostSlices is the adversarial cousin of
// TestConcurrentStressConservation: submitters hammer two domains while a
// chaos goroutine storms BS outages and recoveries into one of them
// mid-wave. Run under -race (make test-race / CI) it is the data-race gate
// for the topology path; its own assertions are conservation — every
// submission decided exactly once, counters exact — and no lost slices:
// every admitted slice is committed in exactly the domain it was offered to.
func TestRaceOutageNoLostSlices(t *testing.T) {
	const (
		goroutines = 8
		perWave    = 2
		waves      = 6
		toggles    = 32 // outage/recovery flips per wave, racing the submitters
	)
	e := New(Config{Shards: 4, QueueDepth: 256, MaxBatch: 4, FlushEvery: 500 * time.Microsecond})
	for _, d := range []string{"a", "b"} {
		if err := e.AddDomain(d, DomainConfig{Net: topology.Testbed(), Algorithm: "direct"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	type sub struct {
		name string
		tk   *Ticket
	}
	var (
		mu      sync.Mutex
		tickets []sub
		shed    int
	)
	offered := map[string]string{} // name → domain

	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func(wave int) {
			defer wg.Done()
			for i := 0; i < toggles; i++ {
				var ev topology.Event
				if i%2 == 0 {
					ev = topology.BSOutage(wave, i/2%2)
				} else {
					ev = topology.BSRecover(wave, i/2%2)
				}
				if err := e.ApplyTopology("a", []topology.Event{ev}); err != nil {
					t.Errorf("apply topology: %v", err)
					return
				}
				if _, err := e.TopologyEvents("a"); err != nil {
					t.Errorf("read topology: %v", err)
					return
				}
			}
		}(wave)
		for g := 0; g < goroutines; g++ {
			for k := 0; k < perWave; k++ {
				wg.Add(1)
				go func(g, k int) {
					defer wg.Done()
					dom := "a"
					if g%2 == 1 {
						dom = "b"
					}
					name := fmt.Sprintf("w%d-g%d-k%d", wave, g, k)
					tk, err := e.Submit(Request{
						Domain: dom,
						Tenant: fmt.Sprintf("tenant%d", g%4),
						Name:   name,
						SLA:    slice.SLA{Template: slice.Table1(slice.EMBB), Duration: 64}.WithPenaltyFactor(1),
					})
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						if !errors.Is(err, ErrOverloaded) {
							t.Errorf("submit %s: %v", name, err)
						}
						shed++
						return
					}
					tickets = append(tickets, sub{name: name, tk: tk})
					offered[name] = dom
				}(g, k)
			}
		}
		wg.Wait()
		if t.Failed() {
			t.Fatal("wave failed")
		}

		for _, dom := range []string{"a", "b"} {
			if _, err := e.DecideRound(dom); err != nil {
				t.Fatal(err)
			}
		}
		for _, dom := range []string{"a", "b"} {
			exp, err := e.Advance(dom)
			if err != nil {
				t.Fatal(err)
			}
			if len(exp) != 0 {
				t.Fatalf("unexpected expiry %v (durations outlive the run)", exp)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Conservation: one decision per accepted submission, counters exact.
	admittedNames := map[string]bool{}
	var admitted, rejected uint64
	for _, s := range tickets {
		out, ok := s.tk.Outcome()
		if !ok {
			t.Fatalf("ticket %s undecided after drain (err=%v)", s.name, s.tk.Err())
		}
		if admittedNames[s.name] {
			t.Fatalf("duplicate decision for %s", s.name)
		}
		if out.Admitted {
			admittedNames[s.name] = true
			admitted++
		} else {
			rejected++
		}
	}
	m := e.Metrics()
	if m.Submitted != uint64(len(tickets)+shed) {
		t.Fatalf("submitted %d, want %d", m.Submitted, len(tickets)+shed)
	}
	if m.Admitted != admitted || m.Rejected+m.FastRejected != rejected || m.Shed != uint64(shed) || m.Failed != 0 {
		t.Fatalf("counters %+v vs observed admitted=%d rejected=%d shed=%d", m, admitted, rejected, shed)
	}
	if m.Admitted+m.Rejected+m.FastRejected+m.Shed != m.Submitted {
		t.Fatalf("conservation broken: %+v", m)
	}

	// No lost slices: every admitted slice is committed in exactly one
	// domain, the one it was offered to.
	inA, err := e.Committed("a")
	if err != nil {
		t.Fatal(err)
	}
	inB, err := e.Committed("b")
	if err != nil {
		t.Fatal(err)
	}
	where := map[string]string{}
	for _, n := range inA {
		where[n] = "a"
	}
	for _, n := range inB {
		if where[n] != "" {
			t.Fatalf("slice %s committed in both domains", n)
		}
		where[n] = "b"
	}
	if len(where) != len(admittedNames) {
		t.Fatalf("committed %d slices, admitted %d", len(where), len(admittedNames))
	}
	for n := range admittedNames {
		if where[n] != offered[n] {
			t.Fatalf("admitted slice %s is committed in %q, offered to %q", n, where[n], offered[n])
		}
	}
}
