// Command slicemgr runs the tenant-facing slice manager web app (§2.2.1):
// it validates slice requests, renders TOSCA-like NS descriptors and
// forwards them to a running ovnes orchestrator.
//
// Usage:
//
//	slicemgr [-listen 127.0.0.1:8090] [-orchestrator http://127.0.0.1:8080]
//
// Then submit a request:
//
//	curl -X POST http://127.0.0.1:8090/requests -d \
//	  '{"name":"urllc1","type":"uRLLC","duration_epochs":12,"penalty_factor":1}'
//
// SIGINT/SIGTERM drain in-flight requests before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/obslog"
)

func main() {
	olog := obslog.New(os.Stderr, slog.LevelInfo).With("service", "slicemgr")

	var (
		listen = flag.String("listen", "127.0.0.1:8090", "listen address")
		orch   = flag.String("orchestrator", "http://127.0.0.1:8080", "ovnes base URL")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	mgr := ctrlplane.NewSliceManager(*orch)
	srv := ctrlplane.NewServer(*listen, mgr.Handler())
	errc := make(chan error, 1)
	go func() {
		olog.Info("slice manager listening", "addr", "http://"+*listen, "orchestrator", *orch)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case <-ctx.Done():
		olog.Info("signal received, shutting down")
	case err := <-errc:
		obslog.Fatal(olog, err)
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		olog.Warn("shutdown", "err", err)
	}
	olog.Info("bye")
}
