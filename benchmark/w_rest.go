package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/monitor"
	"repro/internal/obslog"
	"repro/internal/topology"
)

// rest-stack builds the `ovnes` HA deployment in one process from the
// constructors cmd/ovnes uses: an orchestrator with a data directory and a
// leader lease, a cluster coordinator with one worker over loopback TCP, the
// three domain controllers on their own listeners, and a standby tailing the
// same directory. A tenant-side writer drives it over HTTP, closed loop; a
// reader polls beside it. The solve is a small part of an epoch here: JSON,
// HTTP hops, controller programming and the wire dominate.

const (
	restEpochsPerUnit = 50
	restUnitsPer10s   = 14
	restTopologyEvery = 200 // epochs between POST /topology calls
	restPollEvery     = 4   // epochs between the reader's polls: ≈ 50 Hz at 5 ms an epoch
	restLeaseTTL      = 3 * time.Second
)

// restStack is the deployment.
type restStack struct {
	p       *pass
	dir     string
	cfg     ctrlplane.OrchestratorConfig
	store   *monitor.Store
	orch    *ctrlplane.Orchestrator
	standby *ctrlplane.Standby
	coord   *cluster.Coordinator
	exec    *tracedExec
	lease   *cluster.Lease
	clock   *shiftClock
	base    string // orchestrator URL

	servers    []*http.Server
	stopWorker func()
	stopRenew  func()

	epochID atomic.Value // string: the epoch the writer currently has in flight
	wire    atomic.Int64 // cluster bytes, both directions
	frames  atomic.Int64
}

// shiftClock is a real clock with a forward offset, so that the lease can be
// made to lapse without waiting for its TTL.
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

// serve starts an HTTP server for h on a loopback port and returns its URL.
func (s *restStack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	return "http://" + ln.Addr().String(), nil
}

// startWorker joins one worker to coord over a real loopback TCP
// connection, counting what crosses it.
func (s *restStack) startWorker(coord *cluster.Coordinator, id string) (stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	dialed := make(chan net.Conn, 1)
	go func() {
		c, derr := net.Dial("tcp", ln.Addr().String())
		if derr != nil {
			c = nil
		}
		dialed <- c
	}()
	server, err := ln.Accept()
	if err != nil {
		return nil, err
	}
	client := <-dialed
	if client == nil {
		server.Close()
		return nil, fmt.Errorf("rest-stack: worker dial failed")
	}
	coord.AddConn(countingConn{Conn: server, bytes: &s.wire, frames: &s.frames})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = cluster.RunWorker(ctx, countingConn{Conn: client, frames: &s.frames}, cluster.WorkerOptions{ID: id, Log: obslog.Nop()})
	}()
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := coord.WaitMembers(wctx, 1); err != nil {
		cancel()
		server.Close()
		client.Close()
		<-done
		return nil, err
	}
	return func() {
		cancel()
		server.Close()
		client.Close()
		<-done
	}, nil
}

// newCoordinator builds a coordinator under the lease's fencing epoch, with
// the default domain registered and one TCP worker joined.
func (s *restStack) newCoordinator(epoch uint64, id string) (*cluster.Coordinator, func(), error) {
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{Log: obslog.Nop(), Epoch: epoch})
	if err := coord.RegisterDomain("", admission.DomainConfig{Net: s.cfg.Net, Algorithm: s.cfg.Algorithm}); err != nil {
		coord.Close()
		return nil, nil, err
	}
	stop, err := s.startWorker(coord, id)
	if err != nil {
		coord.Close()
		return nil, nil, err
	}
	return coord, stop, nil
}

// newRestStack builds and starts the whole deployment in dir.
func newRestStack(p *pass, dir string) (*restStack, error) {
	s := &restStack{p: p, dir: dir, clock: &shiftClock{}, store: monitor.NewStore(0)}
	s.epochID.Store("")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	netw := topology.Testbed()
	dp := dataplane.NewEmulator(netw)

	// Southbound: the three domain controllers, each on its own listener.
	// On the traced pass each call is a span under the epoch that caused it.
	southbound := func(h http.Handler) http.Handler {
		if !p.traced() {
			return h
		}
		return timedHandler{inner: h, observe: func(_ *http.Request, start, end time.Time) {
			if id := s.epochID.Load().(string); id != "" {
				p.tr.span("ctrlplane.program", id, "ctrlplane.post_epoch", start, end)
				p.add("ctrlplane.program_ms", ms(end.Sub(start)))
				p.add("ctrlplane.program_calls", 1)
			}
		}}
	}
	ran, err := s.serve(southbound(ctrlplane.NewRANController(dp).Handler()))
	if err != nil {
		return nil, err
	}
	tn, err := s.serve(southbound(ctrlplane.NewTransportController(dp).Handler()))
	if err != nil {
		return nil, err
	}
	cloud, err := s.serve(southbound(ctrlplane.NewCloudController(dp).Handler()))
	if err != nil {
		return nil, err
	}
	s.cfg = ctrlplane.OrchestratorConfig{
		Net: netw, Algorithm: "benders", Store: s.store,
		RANAddr: ran, TransportAddr: tn, CloudAddr: cloud,
		DataDir: dir, SnapshotEvery: 16,
	}

	// Lease, coordinator, worker.
	s.lease, err = cluster.Acquire(cluster.LeaseConfig{Path: filepath.Join(dir, "LEASE"), Holder: "bench-leader", TTL: restLeaseTTL, Now: s.clock.now})
	if err != nil {
		return nil, err
	}
	s.coord, s.stopWorker, err = s.newCoordinator(s.lease.Epoch(), "w0")
	if err != nil {
		return nil, err
	}
	leader := s.cfg
	leader.WALFence = s.lease.Check
	leader.Executor = s.coord
	if p.traced() {
		s.exec = &tracedExec{p: p, child: "cluster.solve_round", parent: "ctrlplane.post_epoch", inner: s.coord.SolveRound,
			domains: map[string]admission.DomainConfig{admission.DefaultDomain: {Net: netw, Algorithm: "benders"}}}
		leader.Executor = s.exec
	}
	if s.orch, err = ctrlplane.NewOrchestrator(leader); err != nil {
		return nil, err
	}

	// Northbound, with server-side handler time on the traced pass.
	var north http.Handler = s.orch.Handler()
	if p.traced() {
		north = timedHandler{inner: north, observe: func(r *http.Request, start, end time.Time) {
			if r.Method == http.MethodPost && r.URL.Path == "/epoch" {
				if id := s.epochID.Load().(string); id != "" {
					p.tr.span("ctrlplane.post_epoch", id, "round", start, end)
					p.obs("ctrlplane.post_epoch_ms", ms(end.Sub(start)))
				}
			}
		}}
	}
	if s.base, err = s.serve(north); err != nil {
		return nil, err
	}

	// Lease renewal, as cmd/ovnes does it (TTL/3).
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(restLeaseTTL / 3)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t := time.Now()
				if err := s.lease.Renew(); err != nil {
					p.fail("lease renew", err)
					return
				}
				p.obs("cluster.lease_renew_us", us(time.Since(t)))
			}
		}
	}()
	s.stopRenew = func() { close(stop); <-done }

	// The standby tails the same directory.
	if s.standby, err = ctrlplane.NewStandby(s.cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// shutdown stops the listeners and whatever else is still running. The
// orchestrator is closed by the caller (Close or Abort, as the workload ends).
func (s *restStack) shutdown() {
	if s.stopRenew != nil {
		s.stopRenew()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		srv.Shutdown(ctx) //nolint:errcheck // best effort on the way out
	}
	if s.coord != nil {
		s.coord.Close()
	}
	if s.stopWorker != nil {
		s.stopWorker()
	}
}

// call does one HTTP exchange and returns the body; a non-2xx status is an
// error.
func call(c *http.Client, method, url string, body interface{}) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s (%s)", method, url, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// restSample is the deterministic traffic the benchmark plays for an active
// slice (the stack has no real data plane load).
func restSample(name string, b, epoch, theta int) float64 {
	h := 0
	for _, c := range name {
		h = h*31 + int(c)
	}
	return 8 + 4*math.Sin(float64(h%17)+0.9*float64(epoch)+0.35*float64(theta)+0.5*float64(b))
}

func runRestStack(p *pass) error {
	s, err := measureSetup(p, func(i int) (*restStack, error) {
		return newRestStack(p, filepath.Join(p.dir, fmt.Sprintf("rest-%d", i)))
	}, func(s *restStack) {
		s.standby.Close()
		s.orch.Abort()
		s.shutdown()
		os.RemoveAll(s.dir)
	})
	if err != nil {
		return err
	}
	defer s.shutdown()

	writer := &http.Client{Timeout: opLimit}
	rng := rand.New(rand.NewSource(int64(mix(p.seed, 3, 0))))
	// Mixed types at a fraction of the Table 1 rates: the testbed's emulated
	// data plane refuses a programming step that overshoots a CPU pool even
	// transiently, and a refused step fails the whole epoch. At these rates
	// the offered load never comes near a pool, so no operation fails.
	types := []struct {
		name string
		mbps float64
	}{{"eMBB", 10}, {"uRLLC", 4}, {"mMTC", 2}}
	nbs := s.cfg.Net.NumBS()

	// The reader connection: GET /yield and /metrics beside the writer, once
	// every restPollEvery epochs; the standby polls at the same cadence from
	// the same goroutine. The cadence is counted in epochs, not in
	// milliseconds, so that every pass makes the same number of polls: on a
	// timer a slower pass polled more often per round, and the polls'
	// allocations moved alloc_mb_per_round by 7 % with the box's speed.
	// poll is buffered to the whole pass so that the writer never waits for
	// the reader.
	poll := make(chan struct{}, unitsFor(restUnitsPer10s, p.seconds)*restEpochsPerUnit)
	stopReader, readerDone := make(chan struct{}), make(chan struct{})
	var leaderRounds atomic.Int64
	go func() {
		defer close(readerDone)
		reader := &http.Client{Timeout: opLimit}
		for {
			select {
			case <-stopReader:
				return
			case <-poll:
			}
			for _, path := range []string{"/yield", "/metrics"} {
				if _, err := call(reader, http.MethodGet, s.base+path, nil); err != nil {
					p.fail("GET "+path, err)
				}
			}
			t := time.Now()
			if _, err := s.standby.Poll(); err != nil {
				p.fail("standby poll", err)
				return
			}
			p.obs("ctrlplane.standby_poll_ms", ms(time.Since(t)))
			_, rounds := s.standby.Progress()
			p.obs("ctrlplane.standby_lag_rounds", float64(leaderRounds.Load()-int64(rounds)))
		}
	}()
	stopReaderOnce := sync.OnceFunc(func() { close(stopReader); <-readerDone })
	defer stopReaderOnce()

	type waiting struct {
		name string
		sent time.Time
	}
	var pending []waiting
	active := map[string]bool{}
	var fp fingerprint
	epoch, degraded := 0, false
	p.beginTimed()
	for u, n := 0, unitsFor(restUnitsPer10s, p.seconds); u < n && !p.overBudget(); u++ {
		for e := 0; e < restEpochsPerUnit; e++ {
			p.opStart(0)
			if epoch > 0 && epoch%restTopologyEvery == 0 {
				f := 0.8
				if degraded {
					f = 1
				}
				degraded = !degraded
				if _, err := call(writer, http.MethodPost, s.base+"/topology", []topology.Event{topology.BSDegrade(epoch, 0, f)}); err != nil {
					p.fail("POST /topology", err)
				}
			}
			// One to three requests per epoch on a fixed 1-2-3-2 cycle, so
			// that every pass offers the same number; the seed picks types
			// and lifetimes.
			for k, n := 0, []int{1, 2, 3, 2}[epoch%4]; k < n; k++ {
				ty := types[rng.Intn(len(types))]
				req := ctrlplane.SliceRequest{
					Name: fmt.Sprintf("s%d-%d", epoch, k), Type: ty.name, RateMbps: ty.mbps,
					DurationEpochs: 2 + rng.Intn(3), PenaltyFactor: 1,
				}
				t := time.Now()
				_, err := call(writer, http.MethodPost, s.base+"/requests", ctrlplane.BuildNSD(req))
				p.obs("ctrlplane.post_request_ms", ms(time.Since(t)))
				if err != nil {
					p.fail("POST /requests", err)
					continue
				}
				pending = append(pending, waiting{req.Name, t})
			}

			id := roundID(p.w.name, admission.DefaultDomain, uint64(epoch))
			s.epochID.Store(id)
			start := time.Now()
			body, err := call(writer, http.MethodPost, s.base+"/epoch", nil)
			end := time.Now()
			s.epochID.Store("")
			p.round(end.Sub(start), err)
			if err != nil {
				return err
			}
			leaderRounds.Add(1)
			var rep ctrlplane.EpochReport
			if err := json.Unmarshal(body, &rep); err != nil {
				return err
			}
			if p.traced() {
				p.tr.span("round", id, "", start, end)
				p.add("ctrlplane.epochs", 1)
			}
			fp.line("%d|%s|%s|%s", rep.Epoch, strings.Join(rep.Accepted, ","), strings.Join(rep.Rejected, ","), strings.Join(rep.Expired, ","))
			decided := map[string]bool{}
			for _, name := range rep.Accepted {
				decided[name], active[name] = true, true
			}
			for _, name := range rep.Rejected {
				decided[name] = true
			}
			for _, name := range rep.Expired {
				delete(active, name)
			}
			still := pending[:0]
			for _, w := range pending {
				if !decided[w.name] {
					still = append(still, w)
					continue
				}
				p.decision(end.Sub(w.sent), nil)
				if p.traced() {
					did := id + "/" + w.name
					p.tr.span("decision", did, "", w.sent, end)
					p.tr.span("admission.queue_wait", did, "decision", w.sent, start)
					p.obs("admission.queue_wait_ms", ms(start.Sub(w.sent)))
				}
			}
			pending = still

			t := time.Now()
			if _, err := call(writer, http.MethodGet, s.base+"/slices", nil); err != nil {
				p.fail("GET /slices", err)
			}
			p.obs("ctrlplane.get_slices_ms", ms(time.Since(t)))
			p.opEnd(0)

			// Play the epoch's traffic for what is active.
			for name := range active {
				for b := 0; b < nbs; b++ {
					for theta := 0; theta < 6; theta++ {
						s.store.Add(monitor.Sample{Slice: name, Metric: monitor.LoadMetric, Element: monitor.BSElement(b),
							Epoch: epoch, Theta: theta, Value: restSample(name, b, epoch, theta)})
					}
				}
			}
			epoch++
			if epoch%restPollEvery == 0 {
				poll <- struct{}{}
			}
		}
		p.unit(u, fp.String())
	}
	p.endTimed()
	for _, w := range pending {
		p.decision(0, fmt.Errorf("%s never decided", w.name))
	}
	p.add("cluster.bytes", float64(s.wire.Load()))
	p.add("cluster.frames", float64(s.frames.Load()))
	if p.traced() {
		m := struct {
			admission.Snapshot
		}{}
		if body, err := call(writer, http.MethodGet, s.base+"/metrics", nil); err == nil && json.Unmarshal(body, &m) == nil {
			p.add("admission.mean_batch", m.MeanBatch)
			p.add("admission.shed", float64(m.Shed))
			p.add("admission.failed", float64(m.Failed))
			p.add("admission.fast_rejected", float64(m.FastRejected))
			p.add("admission.rounds", float64(m.Rounds))
		}
	}

	// The cliffs, off the clock: kill the leader, recover a copy of its
	// directory from scratch, then let the standby take the lease and
	// promote in place. The promoted orchestrator must hold the leader's
	// yield account to the byte.
	stopReaderOnce()
	yieldBefore, err := call(writer, http.MethodGet, s.base+"/yield", nil)
	if err != nil {
		return err
	}
	s.stopRenew()
	s.stopRenew = nil
	s.orch.Abort()
	s.coord.Close()
	s.stopWorker()
	s.coord, s.stopWorker = nil, nil
	if p.traced() {
		p.mu.Lock()
		p.replay = append(p.replay, s.exec.recorded())
		p.mu.Unlock()
		if err := s.recoverCopy(); err != nil {
			return err
		}
	}

	p.opStart(0)
	defer p.opEnd(0)
	s.clock.advance(2 * restLeaseTTL)
	lease2, err := cluster.Acquire(cluster.LeaseConfig{Path: filepath.Join(s.dir, "LEASE"), Holder: "bench-standby", TTL: restLeaseTTL, Now: s.clock.now})
	if err != nil {
		p.fail("lease takeover", err)
		return err
	}
	coord2, stopW2, err := s.newCoordinator(lease2.Epoch(), "w1")
	if err != nil {
		return err
	}
	s.coord, s.stopWorker = coord2, stopW2
	t := time.Now()
	orch2, err := s.standby.Promote(coord2, lease2.Check)
	if err != nil {
		p.fail("standby promote", err)
		return err
	}
	p.obs("ctrlplane.promote_ms", ms(time.Since(t)))
	defer orch2.Close() //nolint:errcheck // teardown
	if got, err := json.Marshal(orch2.Yield()); err != nil || strings.TrimSpace(string(yieldBefore)) != string(got) {
		p.violate("failover: promoted standby's yield account differs from the leader's\n leader:  %s\n standby: %s", strings.TrimSpace(string(yieldBefore)), got)
	}
	fp.line("%s", summaryLine(orch2.Yield()))
	p.mu.Lock()
	if n := len(p.units); n > 0 {
		p.units[n-1] = fp.String()
	}
	p.mu.Unlock()
	return lease2.Release()
}

// recoverCopy times crash recovery of the leader's directory: a byte copy of
// it is opened by a fresh orchestrator, which replays the log before serving.
func (s *restStack) recoverCopy() error {
	dst := s.dir + "-copy"
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), "LEASE") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	cfg := s.cfg
	cfg.DataDir = dst
	cfg.Store = monitor.NewStore(0)
	t := time.Now()
	o, err := ctrlplane.NewOrchestrator(cfg)
	if err != nil {
		s.p.fail("recover copy", err)
		return nil
	}
	s.p.obs("ctrlplane.recover_ms", ms(time.Since(t)))
	o.Abort()
	return nil
}
