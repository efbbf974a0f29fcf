// Command ovnes-worker hosts admission shard solvers for a cluster
// coordinator (ovnes -cluster-listen, or loadgen -cluster). It is
// stateless by design: the coordinator owns every decision, the WAL and
// all tenant state; the worker receives each domain's config once over
// the wire, keeps a warm solver session per domain, and answers round
// dispatches with decisions that are bit-identical to an in-process
// solve. Kill one at any moment — the coordinator re-dispatches whatever
// was in flight to a surviving worker and the decision trace does not
// change.
//
// Usage:
//
//	ovnes-worker -connect 127.0.0.1:9090[,127.0.0.1:9091] [-id worker-1] \
//	             [-log-level info]
//
// -connect takes a comma-separated address list: the worker keeps one
// dial/redial loop per address, so in a replicated deployment (two ovnes
// on one -lease and -data-dir) it reaches whichever coordinator is alive
// without reconfiguration. All connections share one fencing-epoch gate — once
// any coordinator presents a newer leader epoch, dispatches from older
// epochs are rejected with a fenced reply, no matter which connection
// they arrive on.
//
// The worker redials with backoff until a coordinator appears and
// reconnects after a coordinator restart, so start order is free.
// SIGINT/SIGTERM exit cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obslog"
)

func main() {
	var (
		connect  = flag.String("connect", "127.0.0.1:9090", "comma-separated coordinator cluster addresses (ovnes -cluster-listen); one redial loop per address")
		id       = flag.String("id", "", "worker ID for membership and placement (default: host:pid)")
		logLevel slog.Level
	)
	flag.TextVar(&logLevel, "log-level", slog.LevelInfo, "structured log level: debug | info | warn | error")
	flag.Parse()

	olog := obslog.New(os.Stderr, logLevel).With("service", "ovnes-worker")

	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}

	var addrs []string
	for _, a := range strings.Split(*connect, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		obslog.Fatal(olog, errors.New("-connect needs at least one coordinator address"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	olog.Info("starting", "worker", *id, "coordinators", strings.Join(addrs, ","))

	// One fencing gate across every connection: a welcome from the current
	// leader raises it, and any dispatch below it — typically from a
	// deposed leader still running on the other address — is rejected.
	gate := &cluster.EpochGate{}
	var wg sync.WaitGroup
	for _, addr := range addrs {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			dialLoop(ctx, addr, *id, gate, olog)
		}(addr)
	}
	wg.Wait()
	olog.Info("bye", "worker", *id)
}

// dialLoop serves one coordinator address: dial (with backoff), serve
// until the connection or the coordinator dies, repeat.
func dialLoop(ctx context.Context, connect, id string, gate *cluster.EpochGate, olog *slog.Logger) {
	// The solver host is rebuilt per connection on purpose — a fresh
	// coordinator re-assigns domains anyway, and a stale warm cache can
	// never outlive its assignment that way.
	backoff := 250 * time.Millisecond
	for ctx.Err() == nil {
		conn, err := net.DialTimeout("tcp", connect, 5*time.Second)
		if err != nil {
			olog.Debug("coordinator not reachable", "worker", id, "coordinator", connect, "err", err, "retry-in", backoff)
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
			continue
		}
		backoff = 250 * time.Millisecond
		err = cluster.RunWorker(ctx, conn, cluster.WorkerOptions{ID: id, Log: olog, Gate: gate})
		conn.Close()
		switch {
		case ctx.Err() != nil:
			return
		case err != nil && !errors.Is(err, context.Canceled):
			olog.Warn("connection to coordinator lost; redialing", "worker", id, "coordinator", connect, "err", err)
		default:
			olog.Info("coordinator closed the connection; redialing", "worker", id, "coordinator", connect)
		}
	}
}
