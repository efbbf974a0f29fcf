package ctrlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/dataplane"
	"repro/internal/monitor"
	"repro/internal/obslog"
	"repro/internal/topology"
)

// The replication gate. A leader orchestrator (with a WAL, a lease and a
// worker pool) serves the first epochs of a run while a standby tails its
// log; the leader is then hard-killed mid-run, the standby takes the
// lapsed lease under the next fencing epoch, promotes with a fresh worker
// pool, and serves the rest. The full decision trace and the /yield and
// /slices payloads must equal an uninterrupted single-process run's bytes
// exactly — failover is invisible in the decision record.

// newSouthbound spins up a fresh controller trio over its own emulated
// data plane, so each orchestrator programs its own southbound.
func newSouthbound(t *testing.T) (ran, tn, cloud string) {
	t.Helper()
	dp := dataplane.NewEmulator(topology.Testbed())
	for _, s := range []struct {
		h    http.Handler
		addr *string
	}{
		{NewRANController(dp).Handler(), &ran},
		{NewTransportController(dp).Handler(), &tn},
		{NewCloudController(dp).Handler(), &cloud},
	} {
		srv := httptest.NewServer(s.h)
		t.Cleanup(srv.Close)
		*s.addr = srv.URL
	}
	return ran, tn, cloud
}

// shiftClock is a real clock with a controllable forward offset: lease
// expiry in the failover tests is a deterministic advance, not a sleep.
type shiftClock struct {
	mu  sync.Mutex
	off time.Duration
}

func (c *shiftClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Now().Add(c.off)
}

func (c *shiftClock) advance(d time.Duration) {
	c.mu.Lock()
	c.off += d
	c.mu.Unlock()
}

// loadWave is the deterministic shape of the traffic the tests play: a sine
// in [-1, 1] phased by slice name, BS, epoch and monitoring slot.
func loadWave(name string, b, epoch, theta int) float64 {
	h := 0
	for _, c := range name {
		h = h*31 + int(c)
	}
	return math.Sin(float64(h%17) + 0.9*float64(epoch) + 0.35*float64(theta) + 0.5*float64(b))
}

// failoverSample is the deterministic data-plane traffic both runs play.
func failoverSample(name string, b, epoch, theta int) float64 {
	return 8 + 4*loadWave(name, b, epoch, theta)
}

// failoverArrivals is the workload. Four slices outlive the run; x1 expires
// in the last epoch before the kill, x2 is fast-rejected in it, and x3
// arrives and expires after the takeover. The registry of terminated
// slices is serving memory, not durable state — but it forgets them one
// epoch later anyway, so a promoted or recovered orchestrator (which starts
// from the committed slices alone) lists what the uninterrupted one lists
// from its first epoch on. Within an epoch names are offered in sorted
// order, the order the engine commits them in.
func failoverArrivals() map[int][]SliceRequest {
	return map[int][]SliceRequest{
		0: {
			{Name: "u1", Type: "uRLLC", DurationEpochs: 10, PenaltyFactor: 1},
			{Name: "u2", Type: "eMBB", DurationEpochs: 10, PenaltyFactor: 1},
			{Name: "x1", Type: "mMTC", RateMbps: 2, DurationEpochs: 3, PenaltyFactor: 1},
		},
		1: {{Name: "u3", Type: "uRLLC", RateMbps: 5, DurationEpochs: 10, PenaltyFactor: 1}},
		2: {{Name: "x2", Type: "mMTC", RateMbps: 2, DelayMs: 1e-3, DurationEpochs: 3, PenaltyFactor: 1}},
		3: {{Name: "x3", Type: "mMTC", RateMbps: 2, DurationEpochs: 2, PenaltyFactor: 1}},
		4: {{Name: "u4", Type: "eMBB", RateMbps: 8, DurationEpochs: 10, PenaltyFactor: 1}},
	}
}

// failoverWorld is the durable outside world: tenants and the data plane,
// which survive the control-plane crash.
type failoverWorld struct {
	nbs    int
	active []string
	last   []monitor.Sample
	slices []string // GET /slices after each epoch, exact bytes
}

// runEpoch plays epoch e against the currently serving orchestrator and
// returns the epoch report's exact bytes as the decision fingerprint.
func (w *failoverWorld) runEpoch(t *testing.T, o *Orchestrator, store *monitor.Store, e int) string {
	t.Helper()
	for _, req := range failoverArrivals()[e] {
		if err := o.Register(req); err != nil {
			t.Fatalf("epoch %d: register %s: %v", e, req.Name, err)
		}
	}
	rep, err := o.RunEpoch()
	if err != nil {
		t.Fatalf("epoch %d: %v", e, err)
	}
	w.slices = append(w.slices, getBytes(t, o, "/slices"))
	w.active = append(w.active, rep.Accepted...)
	for _, gone := range rep.Expired {
		for i, name := range w.active {
			if name == gone {
				w.active = append(w.active[:i], w.active[i+1:]...)
				break
			}
		}
	}
	sort.Strings(w.active)
	line, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}

	// Data plane: this epoch's measured traffic, remembered for a crash
	// hand-off (the monitoring pipeline re-delivers what a dead store lost).
	w.last = w.last[:0]
	for _, name := range w.active {
		for b := 0; b < w.nbs; b++ {
			for theta := 0; theta < 6; theta++ {
				sm := monitor.Sample{
					Slice: name, Metric: monitor.LoadMetric, Element: monitor.BSElement(b),
					Epoch: e, Theta: theta, Value: failoverSample(name, b, e, theta),
				}
				store.Add(sm)
				w.last = append(w.last, sm)
			}
		}
	}
	return string(line)
}

// slicesMatchFrom requires the GET /slices bytes after every epoch from
// the first one the new leader served to equal the uninterrupted run's.
// (Between the takeover and that epoch the new leader lists only committed
// slices, the uninterrupted one also what terminated in the epoch before.)
func (w *failoverWorld) slicesMatchFrom(t *testing.T, ref *failoverWorld, from int) {
	t.Helper()
	if len(w.slices) != len(ref.slices) {
		t.Fatalf("%d epochs listed, reference %d", len(w.slices), len(ref.slices))
	}
	for e := from; e < len(ref.slices); e++ {
		if w.slices[e] != ref.slices[e] {
			t.Fatalf("/slices diverged after epoch %d:\nreference: %s\nfailover:  %s", e, ref.slices[e], w.slices[e])
		}
	}
}

func (w *failoverWorld) reconnect(store *monitor.Store) {
	for _, sm := range w.last {
		store.Add(sm)
	}
}

// getBytes serves one GET through the orchestrator's real handler and
// returns the exact response body.
func getBytes(t *testing.T, o *Orchestrator, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	o.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d (%s)", path, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// startWorkers attaches n loopback workers to a coordinator and registers
// the default domain, returning a stop for all of them.
func startWorkers(t *testing.T, coord *cluster.Coordinator, n int, tag string) (stop func()) {
	t.Helper()
	if err := coord.RegisterDomain("", admission.DomainConfig{Net: topology.Testbed(), Algorithm: "benders"}); err != nil {
		t.Fatal(err)
	}
	stops := make([]func(), 0, n)
	for i := 0; i < n; i++ {
		stops = append(stops, cluster.StartLoopbackWorker(coord, fmt.Sprintf("%s-w%d", tag, i), obslog.Nop()))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.WaitMembers(ctx, n); err != nil {
		t.Fatal(err)
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}
}

const failoverEpochs = 6

// TestFailoverMatchesUninterrupted is the PR's acceptance gate, at one and
// two workers: SIGKILL-equivalent the leader between epochs, let the
// standby take the lease and promote, and require the concatenated epoch
// reports, the final /yield bytes and the /slices bytes after every epoch
// the new leader served to equal the uninterrupted single-process
// reference exactly.
func TestFailoverMatchesUninterrupted(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			t.Parallel()

			// Uninterrupted reference: one process, no WAL, no cluster.
			refStore := monitor.NewStore(0)
			ran, tn, cloud := newSouthbound(t)
			ref, err := NewOrchestrator(OrchestratorConfig{
				Net: topology.Testbed(), Algorithm: "benders", Store: refStore,
				RANAddr: ran, TransportAddr: tn, CloudAddr: cloud,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ref.Close() }) //nolint:errcheck // engine teardown
			refWorld := &failoverWorld{nbs: topology.Testbed().NumBS()}
			var refLines []string
			for e := 0; e < failoverEpochs; e++ {
				refLines = append(refLines, refWorld.runEpoch(t, ref, refStore, e))
			}
			refYield := getBytes(t, ref, "/yield")

			// Replicated run: leader under lease epoch 1 with its own worker
			// pool, standby tailing the same directory.
			dir := t.TempDir()
			clk := &shiftClock{}
			leaseCfg := cluster.LeaseConfig{Path: filepath.Join(dir, "LEASE"), TTL: time.Second, Now: clk.now}
			leaseCfg.Holder = "leader"
			lease1, err := cluster.Acquire(leaseCfg)
			if err != nil {
				t.Fatal(err)
			}
			coord1 := cluster.NewCoordinator(cluster.CoordinatorOptions{Log: obslog.Nop(), Epoch: lease1.Epoch()})
			stopW1 := startWorkers(t, coord1, workers, "pool1")

			ranL, tnL, cloudL := newSouthbound(t)
			storeL := monitor.NewStore(0)
			leader, err := NewOrchestrator(OrchestratorConfig{
				Net: topology.Testbed(), Algorithm: "benders", Store: storeL,
				RANAddr: ranL, TransportAddr: tnL, CloudAddr: cloudL,
				DataDir: dir, SnapshotEvery: 2,
				Executor: coord1, WALFence: lease1.Check,
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

			kill := failoverEpochs / 2
			w := &failoverWorld{nbs: topology.Testbed().NumBS()}
			var lines []string
			for e := 0; e < kill; e++ {
				lines = append(lines, w.runEpoch(t, leader, storeL, e))
				if _, err := sb.Poll(); err != nil {
					t.Fatalf("standby tail after epoch %d: %v", e, err)
				}
			}

			// Hard kill: the leader's unsynced WAL buffer is lost, its
			// coordinator and workers die with it.
			leader.Abort()
			coord1.Close()
			stopW1()

			// The lease lapses (deterministically — clock, not sleep); the
			// standby takes it under the next fencing epoch and promotes
			// with a brand-new worker pool.
			clk.advance(3 * time.Second)
			leaseCfg.Holder = "standby"
			lease2, err := cluster.Acquire(leaseCfg)
			if err != nil {
				t.Fatal(err)
			}
			if lease2.Epoch() != lease1.Epoch()+1 {
				t.Fatalf("takeover lease epoch %d, want %d", lease2.Epoch(), lease1.Epoch()+1)
			}
			coord2 := cluster.NewCoordinator(cluster.CoordinatorOptions{Log: obslog.Nop(), Epoch: lease2.Epoch()})
			t.Cleanup(func() { coord2.Close() })
			stopW2 := startWorkers(t, coord2, workers, "pool2")
			t.Cleanup(stopW2)

			orch2, err := sb.Promote(coord2, lease2.Check)
			if err != nil {
				t.Fatalf("promote: %v", err)
			}
			t.Cleanup(func() { orch2.Close() }) //nolint:errcheck // engine teardown
			if rep := orch2.Recovery(); rep == nil || rep.Rounds != kill {
				t.Fatalf("promotion replayed %+v, want %d rounds", orch2.Recovery(), kill)
			}
			// The workload must put the forgetting rule to work: the
			// uninterrupted run still lists what terminated in the last
			// pre-kill epoch, the promoted one never knew it.
			if before := refWorld.slices[kill-1]; !strings.Contains(before, `"x1"`) || !strings.Contains(before, `"x2"`) ||
				strings.Contains(getBytes(t, orch2, "/slices"), `"x`) {
				t.Fatalf("x1/x2 should have terminated in epoch %d: reference lists %s", kill-1, before)
			}
			w.reconnect(storeS)

			for e := kill; e < failoverEpochs; e++ {
				lines = append(lines, w.runEpoch(t, orch2, storeS, e))
			}

			for i := range refLines {
				if i >= len(lines) || refLines[i] != lines[i] {
					got := "<missing>"
					if i < len(lines) {
						got = lines[i]
					}
					t.Fatalf("decision trace diverged at epoch %d:\n  reference: %s\n  failover:  %s", i, refLines[i], got)
				}
			}
			if got := getBytes(t, orch2, "/yield"); got != refYield {
				t.Fatalf("/yield diverged:\nreference: %s\nfailover:  %s", refYield, got)
			}
			w.slicesMatchFrom(t, refWorld, kill)
		})
	}
}

// TestStandbyHealsCompactionGap pins the self-heal path: a standby that
// opens the leader's directory before anything is written tails from LSN
// 0 — and if the leader then runs a burst of epochs, snapshots, and
// compacts the early segments before the replica's next poll (a fast
// solver makes that window real), the tail gaps behind compaction. The
// standby must re-bootstrap from the leader's newest snapshot in place
// and still promote to a byte-identical orchestrator.
func TestStandbyHealsCompactionGap(t *testing.T) {
	// Uninterrupted reference.
	refStore := monitor.NewStore(0)
	ran, tn, cloud := newSouthbound(t)
	ref, err := NewOrchestrator(OrchestratorConfig{
		Net: topology.Testbed(), Algorithm: "benders", Store: refStore,
		RANAddr: ran, TransportAddr: tn, CloudAddr: cloud,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() }) //nolint:errcheck // engine teardown
	refWorld := &failoverWorld{nbs: topology.Testbed().NumBS()}
	var refLines []string
	for e := 0; e < failoverEpochs; e++ {
		refLines = append(refLines, refWorld.runEpoch(t, ref, refStore, e))
	}
	refYield := getBytes(t, ref, "/yield")

	// Leader with a WAL; the standby opens the directory first, so its
	// tail starts at LSN 0 with no bootstrap snapshot.
	dir := t.TempDir()
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

	// The whole pre-kill run happens with the standby never polling: by
	// the kill point the leader has snapshotted (SnapshotEvery=2, 3
	// epochs) and compacted the segments the standby's tail still needs.
	kill := failoverEpochs / 2
	w := &failoverWorld{nbs: topology.Testbed().NumBS()}
	var lines []string
	for e := 0; e < kill; e++ {
		lines = append(lines, w.runEpoch(t, leader, storeL, e))
	}
	leader.Abort()

	// The next poll hits the gap and must heal it, not die on it.
	if _, err := sb.Poll(); err != nil {
		t.Fatalf("standby poll across compaction gap: %v", err)
	}
	if got := sb.Rebuilds(); got != 1 {
		t.Fatalf("standby rebuilds = %d, want exactly 1 (the test exists to exercise the heal)", got)
	}

	orch2, err := sb.Promote(nil, nil)
	if err != nil {
		t.Fatalf("promote after heal: %v", err)
	}
	t.Cleanup(func() { orch2.Close() }) //nolint:errcheck // engine teardown
	w.reconnect(storeS)

	for e := kill; e < failoverEpochs; e++ {
		lines = append(lines, w.runEpoch(t, orch2, storeS, e))
	}
	for i := range refLines {
		if i >= len(lines) || refLines[i] != lines[i] {
			got := "<missing>"
			if i < len(lines) {
				got = lines[i]
			}
			t.Fatalf("decision trace diverged at epoch %d:\n  reference: %s\n  healed:    %s", i, refLines[i], got)
		}
	}
	if got := getBytes(t, orch2, "/yield"); got != refYield {
		t.Fatalf("/yield diverged:\nreference: %s\nhealed:    %s", refYield, got)
	}
	w.slicesMatchFrom(t, refWorld, kill)
}
