package admission

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/slice"
	"repro/internal/topology"
)

// TestConcurrentStressConservation hammers a sharded engine from many
// goroutines under online idle/size cutting and checks the invariant
// the serving layer lives by: every submitted request gets exactly one
// decision — none lost, none duplicated, every counter conserved. Run under
// -race (make test-race / CI) this is also the engine's data-race gate.
func TestConcurrentStressConservation(t *testing.T) {
	const (
		domains    = 4
		goroutines = 16
		perG       = 16
	)
	e := New(Config{
		Shards:     4,
		QueueDepth: 64,
		MaxBatch:   4,
		FlushEvery: 500 * time.Microsecond,
	})
	for d := 0; d < domains; d++ {
		if err := e.AddDomain(fmt.Sprintf("op%d", d), DomainConfig{Net: topology.Testbed(), Algorithm: "direct"}); err != nil {
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
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < perG; r++ {
				name := fmt.Sprintf("g%d-r%d", g, r)
				tk, err := e.Submit(Request{
					Domain: fmt.Sprintf("op%d", g%domains),
					Tenant: fmt.Sprintf("tenant%d", g%6),
					Name:   name,
					SLA:    slice.SLA{Template: slice.Table1(slice.EMBB), Duration: 64}.WithPenaltyFactor(1),
				})
				mu.Lock()
				if err != nil {
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("submit %s: %v", name, err)
					}
					shed++
				} else {
					tickets = append(tickets, sub{name: name, tk: tk})
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("unexpected submit errors")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Exactly one decision per accepted request, none lost.
	seen := map[string]bool{}
	var admitted, rejected uint64
	for _, s := range tickets {
		out, ok := s.tk.Outcome()
		if !ok {
			t.Fatalf("ticket %s undecided after drain (err=%v)", s.name, s.tk.Err())
		}
		if out.Name != s.name {
			t.Fatalf("ticket %s carries outcome for %s", s.name, out.Name)
		}
		if seen[s.name] {
			t.Fatalf("duplicate decision for %s", s.name)
		}
		seen[s.name] = true
		if out.Admitted {
			admitted++
		} else {
			rejected++
		}
	}
	if len(seen) != len(tickets) || len(tickets)+shed != goroutines*perG {
		t.Fatalf("decisions=%d shed=%d, want total %d", len(seen), shed, goroutines*perG)
	}

	// Counter conservation against the metrics snapshot.
	m := e.Metrics()
	if m.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", m.QueueDepth)
	}
	if m.Submitted != uint64(goroutines*perG) {
		t.Fatalf("submitted %d, want %d", m.Submitted, goroutines*perG)
	}
	if m.Admitted != admitted || m.Rejected+m.FastRejected != rejected || m.Shed != uint64(shed) || m.Failed != 0 {
		t.Fatalf("counters %+v vs observed admitted=%d rejected=%d shed=%d", m, admitted, rejected, shed)
	}
	if m.Admitted+m.Rejected+m.FastRejected+m.Shed != m.Submitted {
		t.Fatalf("conservation broken: %+v", m)
	}
}

// TestShardCountInvariance drives identical wave-synchronized workloads —
// submissions racing within each wave — through engines at 1, 2 and 5
// shards and demands bit-identical per-round decisions: the canonical round
// order plus per-domain serialization must erase both submission
// interleaving and shard topology.
func TestShardCountInvariance(t *testing.T) {
	workload := func(shards int) string {
		const domains = 3
		e := New(Config{Shards: shards, QueueDepth: 256})
		for d := 0; d < domains; d++ {
			if err := e.AddDomain(fmt.Sprintf("op%d", d), DomainConfig{Net: topology.Testbed(), Algorithm: "benders"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		defer e.Stop()

		types := []slice.Type{slice.EMBB, slice.URLLC, slice.MMTC}
		var fp strings.Builder
		for wave := 0; wave < 4; wave++ {
			var wg sync.WaitGroup
			for d := 0; d < domains; d++ {
				for k := 0; k < 2; k++ {
					wg.Add(1)
					go func(d, k int) {
						defer wg.Done()
						ty := types[(wave+d+k)%len(types)]
						_, err := e.Submit(Request{
							Domain: fmt.Sprintf("op%d", d),
							Name:   fmt.Sprintf("w%d-d%d-k%d", wave, d, k),
							SLA:    slice.SLA{Template: slice.Table1(ty), Duration: 2 + wave%2}.WithPenaltyFactor(1),
						})
						if err != nil {
							t.Errorf("submit: %v", err)
						}
					}(d, k)
				}
			}
			wg.Wait()
			if t.Failed() {
				t.Fatal("submissions failed")
			}
			for d := 0; d < domains; d++ {
				dom := fmt.Sprintf("op%d", d)
				// Drift committed forecasts deterministically before the round.
				for _, name := range mustCommittedIn(t, e, dom) {
					lh, sg := driftView(name, slice.SLA{Template: slice.Table1(slice.EMBB)}, wave)
					if err := e.UpdateForecasts(dom, []ForecastUpdate{{Name: name, LambdaHat: lh, Sigma: sg}}); err != nil {
						t.Fatal(err)
					}
				}
				r, err := e.DecideRound(dom)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&fp, "%s %s\n", dom, fingerprint(wave, r.Names, r.Decision))
				exp, err := e.Advance(dom)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&fp, "%s expired=%v\n", dom, exp)
			}
		}
		return fp.String()
	}

	want := workload(1)
	for _, shards := range []int{2, 5} {
		if got := workload(shards); got != want {
			t.Fatalf("shards=%d diverged from single-shard run:\nwant:\n%s\ngot:\n%s", shards, want, got)
		}
	}
}

func mustCommittedIn(t *testing.T, e *Engine, domain string) []string {
	t.Helper()
	cs, err := e.CommittedDetail(domain)
	if err != nil {
		t.Fatal(err)
	}
	return committedNames(cs)
}

// committedNames lists committed slices' names in admission order.
func committedNames(cs []CommittedSlice) []string {
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return names
}

// driftView is the deterministic stand-in for a forecaster: the (λ̂, σ̂) a
// committed slice reports at epoch t. It depends only on (name, epoch), so
// every run of a workload feeds its solvers identical drift — low enough σ̂
// that reservations genuinely shrink, varied enough that every steady
// epoch moves costs and RHS (the warm-rebind path).
func driftView(name string, sla slice.SLA, t int) (lambdaHat, sigma float64) {
	h := 0
	for _, c := range name {
		h = h*31 + int(c)
	}
	phase := float64(h%97) + 0.7*float64(t)
	frac := 0.25 + 0.2*(math.Sin(phase)+1)/2 // λ̂ ∈ [0.25Λ, 0.45Λ]
	return frac * sla.RateMbps, 0.08 + 0.04*(math.Cos(phase)+1)/2
}

// fingerprint renders one round's decision: the objective, exactly, and each
// admitted slice's CU and per-BS paths, in solve order.
func fingerprint(epoch int, names []string, dec *core.Decision) string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d exp=%v:", epoch, dec.Revenue())
	for i, name := range names {
		if i < len(dec.Accepted) && dec.Accepted[i] {
			fmt.Fprintf(&b, " %s@cu%d%v", name, dec.CU[i], dec.PathIdx[i])
		}
	}
	return b.String()
}

func specNames(specs []core.TenantSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}
