package cluster

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
)

// startGatedWorker is StartLoopbackWorker with an explicit fencing gate,
// so a test can simulate the worker having already seen a newer leader's
// welcome on its other connection.
func startGatedWorker(t *testing.T, c *Coordinator, id string, gate *EpochGate) (stop func(), errc <-chan error) {
	t.Helper()
	server, client := net.Pipe()
	c.AddConn(server)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, client, WorkerOptions{ID: id, Log: testLogger(t), Gate: gate})
	}()
	return func() {
		cancel()
		server.Close()
		client.Close()
	}, done
}

// TestEpochGateAdmits pins the watermark semantics every fencing decision
// reduces to.
func TestEpochGateAdmits(t *testing.T) {
	gate := &EpochGate{}
	steps := []struct {
		epoch uint64
		want  bool
	}{
		{0, true}, // leases not configured anywhere yet
		{1, true}, // first leased leader raises the watermark
		{0, false},
		{1, true}, // current epoch stays admitted
		{3, true}, // a newer leader raises it further
		{2, false},
		{3, true},
	}
	for i, s := range steps {
		if got := gate.Admit(s.epoch); got != s.want {
			t.Fatalf("step %d: Admit(%d) = %v, want %v (watermark %d)", i, s.epoch, got, s.want, gate.Current())
		}
	}
	if gate.Current() != 3 {
		t.Fatalf("watermark %d, want 3", gate.Current())
	}
}

// TestFencedStaleLeaderStopsDispatching is the wire-fencing pin: a worker
// that has seen a newer leader epoch answers a stale coordinator's round
// with a fenced rejection, and the coordinator — still having a live,
// assigned worker — returns ErrFenced instead of deciding anything,
// locally or remotely. A deposed leader must not produce one more
// decision.
func TestFencedStaleLeaderStopsDispatching(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{
		Log:              testLogger(t),
		Epoch:            1,
		HeartbeatTimeout: time.Minute,
		DispatchTimeout:  30 * time.Second,
	})
	defer coord.Close()
	if err := coord.RegisterDomain("", testDomainConfig()); err != nil {
		t.Fatal(err)
	}
	gate := &EpochGate{}
	stop, _ := startGatedWorker(t, coord, "w0", gate)
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.WaitMembers(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// Sanity: under its own epoch the leader dispatches and decides.
	dec, err := coord.SolveRound(admission.DefaultDomain, 1, nil, testTenants())
	if err != nil || dec == nil {
		t.Fatalf("un-fenced solve: dec=%v err=%v", dec, err)
	}

	// A newer leader's welcome reaches the worker (on its other
	// connection, in a real deployment). The next dispatch under epoch 1
	// must come back fenced.
	gate.Admit(2)
	dec, err = coord.SolveRound(admission.DefaultDomain, 2, nil, testTenants())
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale dispatch: err=%v, want ErrFenced", err)
	}
	if dec != nil {
		t.Fatalf("stale dispatch still produced a decision: %+v", dec)
	}
	if !coord.Fenced() {
		t.Fatal("coordinator not marked fenced after a worker rejection")
	}

	// Fenced is permanent: no further round may be decided, and ErrFenced
	// is not a decline, so the engine will not solve it on its own solver.
	if _, err := coord.SolveRound(admission.DefaultDomain, 3, nil, testTenants()); !errors.Is(err, ErrFenced) {
		t.Fatalf("post-fence solve: err=%v, want ErrFenced", err)
	}
}

// TestWorkerRejectsStaleWelcome: a worker that already follows epoch 2
// refuses to join a coordinator still introducing itself as epoch 1 — the
// connection dies before any assign can land.
func TestWorkerRejectsStaleWelcome(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{Log: testLogger(t), Epoch: 1, HeartbeatTimeout: time.Minute})
	defer coord.Close()
	if err := coord.RegisterDomain("", testDomainConfig()); err != nil {
		t.Fatal(err)
	}
	gate := &EpochGate{}
	gate.Admit(2)
	coord.mu.Lock()
	joined := coord.watch // closed by the next membership change: the join
	coord.mu.Unlock()
	stop, errc := startGatedWorker(t, coord, "w0", gate)
	defer stop()

	timeout := time.After(10 * time.Second)
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "stale leader epoch") {
			t.Fatalf("RunWorker = %v, want a stale-leader-epoch error", err)
		}
	case <-timeout:
		t.Fatal("worker kept serving a stale leader")
	}
	// The coordinator publishes a member as soon as its welcome is written;
	// the rejecting worker then drops the connection (as cmd/ovnes-worker
	// does when RunWorker returns) and the read loop retires the member.
	// Both are membership changes, so wait on the coordinator's own signal:
	// first for the join, then for the leave.
	stop()
	select {
	case <-joined:
	case <-timeout:
		t.Fatal("coordinator never published the worker it welcomed")
	}
	coord.mu.Lock()
	n, left := len(coord.members), coord.watch // closed by the leave, if still to come
	coord.mu.Unlock()
	if n != 0 {
		select {
		case <-left:
		case <-timeout:
			t.Fatal("coordinator never saw the rejecting worker's connection close")
		}
	}
	if members := coord.Members(); len(members) != 0 {
		t.Fatalf("stale coordinator kept members: %v", members)
	}
}
