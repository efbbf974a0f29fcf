// Command ovnes runs the full hierarchical control plane of Fig. 2 as real
// network services on localhost: the three domain controllers (RAN,
// transport, cloud) fronting an emulated data plane, the UDP monitoring
// collector, and the E2E orchestrator on top. Pair it with cmd/slicemgr
// for the tenant-facing web API.
//
// Usage:
//
//	ovnes [-listen 127.0.0.1:8080] [-collector 127.0.0.1:6343] \
//	      [-topology testbed|romanian|swiss|italian] [-nbs 4] [-algo direct] \
//	      [-queue 1024] [-epoch-every 0] \
//	      [-data-dir ovnes-data] [-snapshot-every 16] \
//	      [-cluster-listen 127.0.0.1:9090] \
//	      [-lease ovnes-data/LEASE] [-lease-ttl 3s] [-lease-renew-every 0] \
//	      [-log-level info]
//
// Endpoints (orchestrator): POST /requests, POST /epoch, GET /slices,
// GET /epoch, GET /metrics, GET /yield. The controllers listen on
// consecutive ports after -listen, each with one write route (POST /shares,
// /flows, /stacks) that takes an epoch document; the orchestrator posts the
// three concurrently over kept-alive connections, at most twice per epoch.
// GET /slices lists the committed slices in admission order, then what was
// rejected or expired in the last epoch, then the undecided requests in
// registration order; a restarted or promoted ovnes lists the same. With
// -epoch-every > 0 the closed loop
// (internal/reopt) runs one epoch per period on its own — monitoring
// feeds forecasts, reservations rescale, realized yield settles — and
// POST /epoch just inserts extra epochs.
//
// With -data-dir, every decision round's inputs are logged to a durable
// WAL and the control-plane state snapshots periodically (internal/wal):
// kill the process at any point, restart it with the same -data-dir, and
// it recovers the exact pre-kill decision state and yield account before
// serving. A clean shutdown writes a final snapshot, making the next
// start replay-free.
//
// With -cluster-listen, ovnes becomes a cluster coordinator: ovnes-worker
// processes connect to that TCP address and each epoch's round solve is
// dispatched to the worker a deterministic rendezvous placement picks.
// Decisions are bit-identical to single-process mode — a worker killed
// mid-round is detected, its in-flight round re-dispatched, and its load
// rebalanced onto the survivors without losing or reordering a decision.
//
// With -lease, ovnes takes a leader lease (internal/cluster) before
// serving: the acquisition bumps a fencing epoch that is stamped on every
// worker dispatch and checked by the WAL before every write, so a deposed
// leader that keeps running is rejected by workers and cannot touch the
// log. The lease is renewed every -lease-renew-every (default TTL/3);
// losing it is fatal by design — exactly one ovnes dispatches at a time.
//
// With -lease and -data-dir, every ovnes is a warm replica while it waits:
// it tails the WAL, replaying every committed decision through the same
// code paths crash recovery uses. A second ovnes started on the same lease
// and directory therefore stands by behind the leader; when the leader's
// lease lapses it takes the lease, finishes replay (truncating the dead
// leader's uncommitted residue), and starts serving — with a decision
// state bit-identical to the leader's, under the next fencing epoch. Point
// workers at both addresses (ovnes-worker -connect addrA,addrB) and
// failover needs no reconfiguration.
//
// SIGINT/SIGTERM shut the stack down gracefully: listeners stop accepting,
// in-flight HTTP requests finish, the admission engine drains its queue,
// and only then does the process exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/monitor"
	"repro/internal/obslog"
	"repro/internal/scenario"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:8080", "orchestrator address; controllers bind the next three ports")
		collector  = flag.String("collector", "127.0.0.1:6343", "UDP monitoring collector address")
		topoName   = flag.String("topology", "testbed", "testbed | romanian | swiss | italian")
		nbs        = flag.Int("nbs", 4, "BS count for operator topologies (0 = full size)")
		algo       = flag.String("algo", "direct", "direct | benders | kac | no-overbooking")
		queue      = flag.Int("queue", 1024, "admission engine intake depth")
		epochEvery = flag.Duration("epoch-every", 0, "run the closed loop on this wall-clock period (0 = epochs only via POST /epoch)")
		dataDir    = flag.String("data-dir", "", "durable WAL + snapshot directory; decisions survive a kill and replay on restart (empty = no durability)")
		snapEvery  = flag.Int("snapshot-every", 16, "snapshot cadence in epochs (with -data-dir)")
		clListen   = flag.String("cluster-listen", "", "accept ovnes-worker connections on this TCP address and dispatch round solves to them (empty = solve in-process)")
		leasePath  = flag.String("lease", "", "leader lease file (conventionally <data-dir>/LEASE); acquire it before serving, fence dispatches and WAL writes with its epoch (empty = no lease)")
		leaseTTL   = flag.Duration("lease-ttl", 3*time.Second, "lease validity; a standby takes over this long after the leader stops renewing")
		leaseRenew = flag.Duration("lease-renew-every", 0, "lease renewal cadence (0 = TTL/3)")
		logLevel   slog.Level
	)
	flag.TextVar(&logLevel, "log-level", slog.LevelInfo, "structured log level: debug | info | warn | error")
	flag.Parse()

	olog := obslog.New(os.Stderr, logLevel).With("service", "ovnes")

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	net_, err := scenario.BuildTopology(*topoName, *nbs)
	if err != nil {
		obslog.Fatal(olog, err)
	}

	holder := leaseHolder()
	leaseCfg := cluster.LeaseConfig{Path: *leasePath, Holder: holder, TTL: *leaseTTL}

	dp := dataplane.NewEmulator(net_)
	store := monitor.NewStore(0)

	col, err := monitor.NewCollector(*collector, store)
	if err != nil {
		obslog.Fatal(olog, err)
	}
	defer col.Close()
	olog.Info("monitoring collector listening", "addr", "udp://"+col.Addr())

	host, portStr, err := net.SplitHostPort(*listen)
	if err != nil {
		obslog.Fatal(olog, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		obslog.Fatal(olog, err)
	}
	addrOf := func(off int) string { return net.JoinHostPort(host, strconv.Itoa(port+off)) }

	// Every service is an http.Server (ctrlplane.NewServer: read and idle
	// timeouts set) so shutdown can drain it; a fatal listener error
	// anywhere tears the whole stack down via errc.
	var servers []*http.Server
	errc := make(chan error, 8)
	serve := func(addr, name string, h http.Handler) {
		srv := ctrlplane.NewServer(addr, h)
		servers = append(servers, srv)
		go func() {
			olog.Info("listening", "server", name, "addr", "http://"+addr)
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("%s: %w", name, err)
			}
		}()
	}
	// The domain controllers are stateless; a waiting replica binds them
	// right away so the southbound is ready the instant it is promoted.
	serve(addrOf(1), "RAN controller", ctrlplane.NewRANController(dp).Handler())
	serve(addrOf(2), "transport controller", ctrlplane.NewTransportController(dp).Handler())
	serve(addrOf(3), "cloud controller", ctrlplane.NewCloudController(dp).Handler())

	orchCfg := ctrlplane.OrchestratorConfig{
		Net:           net_,
		Algorithm:     *algo,
		QueueDepth:    *queue,
		Store:         store,
		RANAddr:       "http://" + addrOf(1),
		TransportAddr: "http://" + addrOf(2),
		CloudAddr:     "http://" + addrOf(3),
		DataDir:       *dataDir,
		SnapshotEvery: *snapEvery,
	}

	// A cluster coordinator is built only once the lease epoch is known:
	// every welcome/assign/round it sends carries that epoch, so workers
	// can fence out dispatches from a deposed predecessor.
	newCoord := func(epoch uint64) (*cluster.Coordinator, error) {
		coord := cluster.NewCoordinator(cluster.CoordinatorOptions{Log: olog, Epoch: epoch})
		if err := coord.RegisterDomain("", admission.DomainConfig{Net: net_, Algorithm: *algo}); err != nil {
			coord.Close()
			return nil, err
		}
		addr, err := coord.Listen(*clListen)
		if err != nil {
			coord.Close()
			return nil, err
		}
		olog.Info("cluster coordinator listening (ovnes-worker -connect <addr>)", "addr", "tcp://"+addr)
		return coord, nil
	}

	var (
		orch  *ctrlplane.Orchestrator
		sb    *ctrlplane.Standby
		lease *cluster.Lease
		coord *cluster.Coordinator
		exec  admission.Executor
		fence func() error
		epoch uint64
	)
	if *dataDir != "" {
		// The log is read by its tail alone: recovery at start is a
		// promotion, and with -lease the tail follows a live leader's log
		// while this process waits its turn.
		if sb, err = ctrlplane.NewStandby(orchCfg); err != nil {
			obslog.Fatal(olog, err)
		}
	}
	if *leasePath != "" {
		if sb != nil {
			go func() {
				// Tail until promoted; a replica diverged from the log dies.
				if err := sb.Run(ctx); err != nil {
					errc <- err
				}
			}()
		}
		olog.Info("acquiring leader lease", "lease", *leasePath, "holder", holder, "data-dir", *dataDir)
		lease, err = cluster.WaitAcquire(ctx, leaseCfg)
		if err != nil {
			if sb != nil {
				sb.Close()
			}
			if ctx.Err() != nil {
				olog.Info("signal received while waiting for the lease, bye")
				return
			}
			obslog.Fatal(olog, err)
		}
		attrs := []any{"holder", holder, "lease-epoch", lease.Epoch()}
		if sb != nil {
			lsn, rounds := sb.Progress()
			attrs = append(attrs, "replayed-lsn", lsn, "replayed-rounds", rounds, "snapshot-rebootstraps", sb.Rebuilds())
		}
		olog.Info("took leadership", attrs...)
		fence, epoch = lease.Check, lease.Epoch()
	}
	if *clListen != "" {
		if coord, err = newCoord(epoch); err != nil {
			obslog.Fatal(olog, err)
		}
		exec = coord
	}
	if sb != nil {
		orch, err = sb.Promote(exec, fence)
	} else {
		orchCfg.Executor = exec
		orch, err = ctrlplane.NewOrchestrator(orchCfg)
	}
	if err != nil {
		obslog.Fatal(olog, err)
	}
	if coord != nil {
		defer coord.Close()
	}
	if rep := orch.Recovery(); rep != nil {
		replay, domains := orch.ReplayCost()
		olog.Info("durable state recovered", "data-dir", *dataDir, "snapshot-lsn", rep.SnapshotLSN,
			"records-replayed", rep.Applied, "rounds-replayed", rep.Rounds,
			"uncommitted-tail-records-dropped", rep.HeldBack,
			"replay-ms", float64(replay.Microseconds())/1e3, "domains", domains)
	}
	if lease != nil {
		renew := *leaseRenew
		if renew <= 0 {
			renew = leaseCfg.TTL / 3
		}
		go func() {
			tick := time.NewTicker(renew)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if err := lease.Renew(); err != nil {
						// Fatal by design: a leader that cannot renew must
						// stop dispatching before a successor's TTL elapses.
						errc <- fmt.Errorf("leader lease: %w", err)
						return
					}
				}
			}
		}()
	}
	serve(*listen, fmt.Sprintf("E2E orchestrator (%s, %s)", net_.Name, *algo), orch.Handler())
	if *epochEvery > 0 {
		olog.Info("closed loop running", "epoch-every", *epochEvery)
		go func() {
			if err := orch.RunLoop(ctx, *epochEvery); err != nil {
				errc <- fmt.Errorf("closed loop: %w", err)
			}
		}()
	}

	failed := false
	select {
	case <-ctx.Done():
		olog.Info("signal received, shutting down")
	case err := <-errc:
		// A dead listener is a failure even though we still drain: the
		// exit status must tell the supervisor to restart us.
		failed = true
		olog.Error("service failed, shutting down", "err", err)
	}

	// Drain order matters: stop accepting HTTP first (in-flight admissions
	// finish), then drain the admission engine, then release the collector.
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range servers {
		if err := srv.Shutdown(shCtx); err != nil {
			olog.Warn("shutdown", "err", err)
		}
	}
	if err := orch.Close(); err != nil {
		olog.Warn("admission engine drain", "err", err)
	}
	if lease != nil {
		if err := lease.Release(); err != nil {
			olog.Warn("lease release", "err", err)
		}
	}
	col.Close()
	olog.Info("monitoring collector closed", "dropped-datagrams", col.Dropped())
	if failed {
		obslog.Fatal(olog, errors.New("exiting after failure"))
	}
	olog.Info("bye")
}

// leaseHolder identifies this process in the lease file.
func leaseHolder() string {
	host, err := os.Hostname()
	if err != nil {
		host = "ovnes"
	}
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}
