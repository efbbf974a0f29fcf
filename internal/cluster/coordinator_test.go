package cluster

import (
	"context"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/slice"
	"repro/internal/topology"
)

func testDomainConfig() admission.DomainConfig {
	return admission.DomainConfig{Net: topology.Testbed(), Algorithm: "direct"}
}

func testTenants() []core.TenantSpec {
	sla := slice.SLA{Template: slice.Table1(slice.EMBB).WithStd(10), MeanMbps: 15, Duration: 3}
	return []core.TenantSpec{
		{Name: "t0", SLA: sla, LambdaHat: sla.RateMbps, Sigma: 1},
		{Name: "t1", SLA: sla, LambdaHat: sla.RateMbps, Sigma: 1},
	}
}

// blackHoleWorker joins the cluster correctly but swallows every round it
// is sent — the shape of a worker that hangs (or is SIGKILLed after
// receiving a dispatch but before replying). roundSeen fires once when
// the first round lands.
func blackHoleWorker(t *testing.T, c *Coordinator, id string) (roundSeen <-chan struct{}, kill func()) {
	t.Helper()
	server, client := net.Pipe()
	c.AddConn(server)
	seen := make(chan struct{})
	go func() {
		frame, err := encodeFrame(&Message{Type: MsgHello, Worker: id})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := client.Write(frame); err != nil {
			return
		}
		fired := false
		for {
			msg, err := readFrame(client)
			if err != nil {
				return
			}
			if msg.Type == MsgRound && !fired {
				fired = true
				close(seen)
			}
		}
	}()
	return seen, func() {
		server.Close()
		client.Close()
	}
}

// TestInFlightRoundRedispatchedOnWorkerLoss pins the rebalance contract
// at its sharpest point: a round already dispatched to a worker that
// dies without replying is re-dispatched to the surviving worker and
// still yields the exact decision a local solve produces — no loss, no
// reorder, no divergence.
func TestInFlightRoundRedispatchedOnWorkerLoss(t *testing.T) {
	dc := testDomainConfig()
	tenants := testTenants()

	// Pick a seed under which the black hole owns the domain, so the
	// first dispatch is guaranteed to hit the worker that will die.
	seed := uint64(0)
	for ; ; seed++ {
		owner, _ := placeDomain(seed, admission.DefaultDomain, []string{"blackhole", "real"})
		if owner == "blackhole" {
			break
		}
	}

	coord := NewCoordinator(CoordinatorOptions{
		Seed:             seed,
		Log:              testLogger(t),
		HeartbeatTimeout: time.Minute, // the kill below is explicit
		DispatchTimeout:  30 * time.Second,
	})
	defer coord.Close()
	if err := coord.RegisterDomain("", dc); err != nil {
		t.Fatal(err)
	}
	stopReal := StartLoopbackWorker(coord, "real", testLogger(t))
	defer stopReal()
	roundSeen, kill := blackHoleWorker(t, coord, "blackhole")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.WaitMembers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if owner, _ := coord.OwnerOf(admission.DefaultDomain); owner != "blackhole" {
		t.Fatalf("setup: expected blackhole to own the domain, got %q", owner)
	}

	type result struct {
		dec *core.Decision
		err error
	}
	done := make(chan result, 1)
	go func() {
		dec, err := coord.SolveRound(admission.DefaultDomain, 1, nil, tenants)
		done <- result{dec, err}
	}()

	select {
	case <-roundSeen:
	case <-time.After(10 * time.Second):
		t.Fatal("round never reached the black-hole worker")
	}
	kill() // the worker dies with the round in flight

	var got result
	select {
	case got = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("SolveRound did not return after worker loss")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if owner, _ := coord.OwnerOf(admission.DefaultDomain); owner != "real" {
		t.Fatalf("domain did not rebalance to the survivor, owner=%q", owner)
	}

	// The reference: the identical pure solve, no cluster anywhere.
	host := NewSolverHost()
	spec, err := NewDomainSpec("", dc)
	if err != nil {
		t.Fatal(err)
	}
	if err := host.Register(spec); err != nil {
		t.Fatal(err)
	}
	want, err := host.Solve(admission.DefaultDomain, nil, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.dec, want) {
		t.Fatalf("re-dispatched decision diverged:\n got: %+v\nwant: %+v", got.dec, want)
	}
}

// TestSolveRoundFallsBackLocallyWithNoWorkers pins the degraded mode: a
// coordinator with zero live workers declines a round at once with
// admission.ErrNoWorker — it keeps no solver of its own — and the engine
// solves that round on the domain's own solver, deciding exactly what an
// engine with no coordinator decides. Losing the whole worker fleet
// degrades throughput, never correctness.
func TestSolveRoundFallsBackLocallyWithNoWorkers(t *testing.T) {
	dc := testDomainConfig()
	coord := NewCoordinator(CoordinatorOptions{Log: testLogger(t), DispatchTimeout: time.Minute})
	defer coord.Close()
	if err := coord.RegisterDomain("", dc); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	dec, err := coord.SolveRound(admission.DefaultDomain, 1, nil, testTenants())
	if !errors.Is(err, admission.ErrNoWorker) || dec != nil {
		t.Fatalf("SolveRound with no workers: dec=%v err=%v, want admission.ErrNoWorker", dec, err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("SolveRound with no workers took %v; it must decline at once, not wait out DispatchTimeout", waited)
	}

	round := func(exec admission.Executor) *admission.Round {
		t.Helper()
		cfg := dc
		cfg.Executor = exec
		e := admission.New(admission.Config{})
		if err := e.AddDomain("", cfg); err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		defer e.Stop()
		sla := testTenants()[0].SLA
		for _, n := range []string{"t0", "t1", "t2"} {
			if _, err := e.Submit(admission.Request{Name: n, SLA: sla}); err != nil {
				t.Fatal(err)
			}
		}
		r, err := e.DecideRound("")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want, got := round(nil), round(coord)
	if !reflect.DeepEqual(got.Decision, want.Decision) {
		t.Fatalf("declined round diverged:\n got: %+v\nwant: %+v", got.Decision, want.Decision)
	}
}

// TestHeartbeatTimeoutRemovesSilentWorker pins liveness: a worker that
// stops sending frames (without its conn dying) is swept out after
// HeartbeatTimeout and the membership watch fires.
func TestHeartbeatTimeoutRemovesSilentWorker(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{
		Log:              testLogger(t),
		HeartbeatTimeout: 150 * time.Millisecond,
	})
	defer coord.Close()

	server, client := net.Pipe()
	coord.AddConn(server)
	// Join by hand, then go silent: no pings, conn held open.
	frame, err := encodeFrame(&Message{Type: MsgHello, Worker: "mute"})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		client.Write(frame)
		for {
			if _, err := readFrame(client); err != nil {
				return
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := coord.WaitMembers(ctx, 1); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for len(coord.Members()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("silent worker still a member after heartbeat timeout: %v", coord.Members())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
