package ctrlplane

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/yield"
)

// TestYieldLedgerThroughREST walks one slice through a monitored epoch and
// reads the realized account back over the orchestrator's REST surface:
// GET /yield carries the raw ledger, GET /metrics embeds it alongside the
// (shape-stable) engine snapshot.
func TestYieldLedgerThroughREST(t *testing.T) {
	s := newStack(t, "direct")
	s.submit(t, urllcReq("u1"))
	s.epoch(t) // admits u1; its reservation serves epoch 0

	// Epoch 0's monitored load: 10 of 25 Mb/s — no violation, full reward.
	for theta := 0; theta < 12; theta++ {
		s.store.Add(monitor.Sample{
			Slice: "u1", Metric: monitor.LoadMetric, Element: monitor.BSElement(0),
			Epoch: 0, Theta: theta, Value: 10,
		})
	}
	s.epoch(t) // settles epoch 0 into the ledger

	resp, err := http.Get(s.orchSrv.URL + "/yield")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum yield.Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.Entries != 1 || len(sum.PerSlice) != 1 || sum.PerSlice[0].Slice != "u1" {
		t.Fatalf("yield summary after one settled epoch: %+v", sum)
	}
	if sum.Penalty != 0 || sum.Realized != sum.Reward || sum.Realized <= 0 {
		t.Fatalf("violation-free epoch should realize the full reward: %+v", sum)
	}
	if sum.ExpectedRounds != 2 { // both epochs' rounds booked an estimate
		t.Fatalf("expected-revenue rounds = %d, want 2: %+v", sum.ExpectedRounds, sum)
	}

	// /metrics keeps the engine counters at the top level and adds yield.
	resp2, err := http.Get(s.orchSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"submitted", "rounds", "yield"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("/metrics missing %q: %v", key, m)
		}
	}
	var embedded yield.Summary
	if err := json.Unmarshal(m["yield"], &embedded); err != nil {
		t.Fatal(err)
	}
	if embedded.Realized != sum.Realized {
		t.Fatalf("/metrics yield %+v != /yield %+v", embedded, sum)
	}

	// The in-process accessor agrees with the REST surface.
	if got := s.orch.Yield(); got.Realized != sum.Realized {
		t.Errorf("Orchestrator.Yield() %+v != GET /yield %+v", got, sum)
	}
}

// TestRunLoopDrivesEpochs pins the orchestrator's wall-clock mode (ovnes
// -epoch-every): epochs advance on their own until the context ends.
func TestRunLoopDrivesEpochs(t *testing.T) {
	s := newStack(t, "direct")
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := s.orch.RunLoop(ctx, 20*time.Millisecond); err != nil {
		t.Fatalf("RunLoop: %v", err)
	}
	resp, err := http.Get(s.orchSrv.URL + "/epoch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e["epoch"] == 0 {
		t.Fatal("no epoch ran during the RunLoop window")
	}
}
