package cluster

import (
	"context"
	"log/slog"
	"net"
)

// StartLoopbackWorker attaches an in-process worker to the coordinator
// over a synchronous net.Pipe — no sockets, no ports. It is how tests
// and benchmarks exercise the full wire protocol hermetically, and how a
// single binary can keep a warm local worker while remote ones join over
// TCP. The returned stop function detaches the worker (the coordinator
// sees an ordinary connection loss and rebalances), waits for it to wind
// down, and returns once the coordinator has dropped its ID.
func StartLoopbackWorker(c *Coordinator, id string, log *slog.Logger) (stop func()) {
	server, client := net.Pipe()
	c.AddConn(server)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = RunWorker(ctx, client, WorkerOptions{ID: id, Log: log})
	}()
	return func() {
		cancel()
		server.Close()
		client.Close()
		<-done
		for {
			c.mu.Lock()
			m, w := c.members[id], c.watch
			c.mu.Unlock()
			if m == nil {
				return
			}
			<-w
		}
	}
}
