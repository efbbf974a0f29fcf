package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
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

// scriptedWorker joins the cluster correctly and answers every round with
// the frames answer(round) returns, in order — or, with a nil answer,
// swallows it: the shape of a worker that hangs (or is SIGKILLed after
// receiving a dispatch but before replying). roundSeen fires once when the
// first round lands.
func scriptedWorker(t *testing.T, c *Coordinator, id string, answer func(round *Message) []*Message) (roundSeen <-chan struct{}, kill func()) {
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
			if msg.Type != MsgRound {
				continue
			}
			if !fired {
				fired = true
				close(seen)
			}
			if answer == nil {
				continue
			}
			for _, reply := range answer(&msg) {
				if frame, err = encodeFrame(reply); err != nil {
					t.Error(err)
					return
				}
				if _, err := client.Write(frame); err != nil {
					return
				}
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

	// Name the black hole so that it owns the domain, so the first
	// dispatch is guaranteed to hit the worker that will die.
	hole := ""
	for i := 0; hole == ""; i++ {
		id := fmt.Sprintf("blackhole-%d", i)
		if owner, _ := placeDomain(placementSeed, admission.DefaultDomain, []string{id, "real"}); owner == id {
			hole = id
		}
	}

	coord := NewCoordinator(CoordinatorOptions{Log: testLogger(t)})
	defer coord.Close()
	if err := coord.RegisterDomain("", dc); err != nil {
		t.Fatal(err)
	}
	stopReal := StartLoopbackWorker(coord, "real", testLogger(t))
	defer stopReal()
	roundSeen, kill := scriptedWorker(t, coord, hole, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.WaitMembers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if owner, _ := coord.OwnerOf(admission.DefaultDomain); owner != hole {
		t.Fatalf("setup: expected %s to own the domain, got %q", hole, owner)
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

	if want := localSolve(t, dc, tenants); !reflect.DeepEqual(got.dec, want) {
		t.Fatalf("re-dispatched decision diverged:\n got: %+v\nwant: %+v", got.dec, want)
	}
}

// localSolve is the reference for a dispatched round: the identical pure
// solve, no cluster anywhere.
func localSolve(t *testing.T, dc admission.DomainConfig, tenants []core.TenantSpec) *core.Decision {
	t.Helper()
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
	return want
}

// TestListenJoinsTCPWorker runs the path ovnes -cluster-listen serves: a
// worker dials the coordinator's listener over TCP, joins through the
// accept loop, and decides a round exactly as a local solve does.
func TestListenJoinsTCPWorker(t *testing.T) {
	dc := testDomainConfig()
	coord := NewCoordinator(CoordinatorOptions{Log: testLogger(t)})
	defer coord.Close()
	if err := coord.RegisterDomain("", dc); err != nil {
		t.Fatal(err)
	}
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- RunWorker(context.Background(), conn, WorkerOptions{ID: "tcp", Log: testLogger(t)}) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.WaitMembers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	dec, err := coord.SolveRound(admission.DefaultDomain, 1, nil, testTenants())
	if err != nil {
		t.Fatal(err)
	}
	if want := localSolve(t, dc, testTenants()); !reflect.DeepEqual(dec, want) {
		t.Fatalf("TCP worker's decision diverged:\n got: %+v\nwant: %+v", dec, want)
	}
	// Closing the coordinator closes the listener and the worker's
	// connection; the worker returns.
	coord.Close()
	<-done
}

// TestSolveRoundFallsBackLocallyWithNoWorkers pins the degraded mode: a
// coordinator with zero live workers declines a round at once with
// admission.ErrNoWorker — it keeps no solver of its own — and the engine
// solves that round on the domain's own solver, deciding exactly what an
// engine with no coordinator decides. Losing the whole worker fleet
// degrades throughput, never correctness.
func TestSolveRoundFallsBackLocallyWithNoWorkers(t *testing.T) {
	dc := testDomainConfig()
	coord := NewCoordinator(CoordinatorOptions{Log: testLogger(t)})
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
		t.Fatalf("SolveRound with no workers took %v; it must decline at once, not wait out dispatchTimeout", waited)
	}

	want, _ := engineRound(t, dc, nil)
	if got, _ := engineRound(t, dc, coord); !reflect.DeepEqual(got.Decision, want.Decision) {
		t.Fatalf("declined round diverged:\n got: %+v\nwant: %+v", got.Decision, want.Decision)
	}
}

// engineRound decides one three-request round on an engine whose domain
// solves through exec, and returns it with the engine's metrics.
func engineRound(t *testing.T, dc admission.DomainConfig, exec admission.Executor) (*admission.Round, admission.Snapshot) {
	t.Helper()
	dc.Executor = exec
	e := admission.New(admission.Config{})
	if err := e.AddDomain("", dc); err != nil {
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
	return r, e.Metrics()
}

// TestBadWorkerReplySolvesLocally: a worker that answers a round with an
// error string, an empty decision, a Z row one base station short, an
// accepted tenant on a CU or path the domain lacks, or a fence that carries
// no newer epoch is not believed. (A NaN reservation cannot cross the wire:
// JSON has no encoding for it; admission's own test sends one.) The coordinator wraps
// the error and the stale fence in admission.ErrBadReply, the engine checks
// the decision, and either way the round is counted and solved on the
// domain's own solver, deciding exactly what an engine with no coordinator
// decides. A duplicate reply, and one whose ID matches no pending round,
// are dropped. After every row the coordinator still dispatches: once the
// worker is gone, its next round is declined to the local solver, not
// failed as fenced.
func TestBadWorkerReplySolvesLocally(t *testing.T) {
	dc := testDomainConfig()
	want, _ := engineRound(t, dc, nil)
	short := *want.Decision
	short.Z = append([][]float64(nil), short.Z...)
	short.Z[0] = short.Z[0][:len(short.Z[0])-1]
	badCU, badPath := outOfDomain(want.Decision, dc.Net, 3)
	const epoch = 3 // the coordinator's lease epoch
	reply := func(dec *core.Decision) func(*Message) []*Message {
		return func(round *Message) []*Message {
			return []*Message{{Type: MsgReply, ID: round.ID, Decision: dec}}
		}
	}
	for _, tc := range []struct {
		name   string
		answer func(round *Message) []*Message
		bad    uint64 // BadReplies the round must count
	}{
		{"error string", func(round *Message) []*Message {
			return []*Message{{Type: MsgReply, ID: round.ID, Err: "solver blew up"}}
		}, 1},
		{"empty", reply(&core.Decision{}), 1},
		{"short Z", reply(&short), 1},
		{"CU out of range", reply(badCU), 1},
		{"PathIdx out of range", reply(badPath), 1},
		{"stale fence", func(round *Message) []*Message {
			return []*Message{{Type: MsgFenced, ID: round.ID, Worker: "liar", Epoch: epoch - 2}}
		}, 1},
		{"duplicate reply", func(round *Message) []*Message {
			return []*Message{
				{Type: MsgReply, ID: round.ID, Decision: want.Decision},
				{Type: MsgReply, ID: round.ID, Decision: &core.Decision{}},
			}
		}, 0},
		{"unknown ID", func(round *Message) []*Message {
			return []*Message{
				{Type: MsgReply, ID: round.ID + 1000, Decision: &core.Decision{}},
				{Type: MsgReply, ID: round.ID, Decision: want.Decision},
			}
		}, 0},
	} {
		coord := NewCoordinator(CoordinatorOptions{Log: testLogger(t), Epoch: epoch})
		if err := coord.RegisterDomain("", dc); err != nil {
			t.Fatal(err)
		}
		_, kill := scriptedWorker(t, coord, "liar", tc.answer)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := coord.WaitMembers(ctx, 1); err != nil {
			t.Fatal(err)
		}
		cancel()
		got, met := engineRound(t, dc, coord)
		kill()
		after, _ := engineRound(t, dc, coord)
		coord.Close()
		if !reflect.DeepEqual(got.Decision, want.Decision) {
			t.Fatalf("%s: round decided\n %+v\nwant\n %+v", tc.name, got.Decision, want.Decision)
		}
		if met.BadReplies != tc.bad {
			t.Fatalf("%s: Metrics counts %d bad replies, want %d", tc.name, met.BadReplies, tc.bad)
		}
		if !reflect.DeepEqual(after.Decision, want.Decision) {
			t.Fatalf("%s: the round after the worker left decided\n %+v\nwant\n %+v", tc.name, after.Decision, want.Decision)
		}
	}
}

// outOfDomain derives two replies from an honest decision over net that
// keep its shape but leave the domain: the first accepted tenant's CU is one
// past net's CUs, or its first path index one past its k-shortest path set.
func outOfDomain(honest *core.Decision, net *topology.Network, k int) (badCU, badPath *core.Decision) {
	i := slices.Index(honest.Accepted, true)
	clone := func() *core.Decision {
		d := *honest
		d.CU, d.PathIdx = slices.Clone(d.CU), slices.Clone(d.PathIdx)
		d.PathIdx[i] = slices.Clone(d.PathIdx[i])
		return &d
	}
	badCU, badPath = clone(), clone()
	badCU.CU[i] = len(net.CUs)
	badPath.PathIdx[i][0] = len(net.Paths(k)[0][honest.CU[i]])
	return badCU, badPath
}

// TestHeartbeatTimeoutRemovesSilentWorker pins liveness: a worker that
// stops sending frames (without its conn dying) is dropped once its read
// deadline passes. The member leaves the membership before its
// connection closes, so the silent side seeing the close is the event.
func TestHeartbeatTimeoutRemovesSilentWorker(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{Log: testLogger(t)})
	coord.silence = 150 * time.Millisecond
	defer coord.Close()

	server, client := net.Pipe()
	coord.AddConn(server)
	// Join by hand, then go silent: no pings, conn held open.
	frame, err := encodeFrame(&Message{Type: MsgHello, Worker: "mute"})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
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

	select {
	case <-closed:
	case <-ctx.Done():
		t.Fatalf("silent worker's connection still open after its read deadline: members %v", coord.Members())
	}
	if members := coord.Members(); len(members) != 0 {
		t.Fatalf("silent worker still a member after its connection closed: %v", members)
	}
}
