package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obslog"
)

// EpochGate is a worker's fencing-epoch watermark: the newest leader
// epoch it has seen on any connection. Frames carrying an older epoch
// are from a deposed leader and are rejected. One gate is shared across
// every connection a worker holds (it may dial the old leader and the
// standby at once during a failover), so learning the new epoch on one
// connection immediately fences the other.
type EpochGate struct {
	cur atomic.Uint64
}

// Admit reports whether a frame with epoch e is current, raising the
// watermark when e is newer. Epoch 0 frames (leases not configured) are
// admitted only while the gate has never seen a nonzero epoch.
func (g *EpochGate) Admit(e uint64) bool {
	for {
		cur := g.cur.Load()
		if e < cur {
			return false
		}
		if e == cur || g.cur.CompareAndSwap(cur, e) {
			return true
		}
	}
}

// Current returns the newest epoch the gate has seen.
func (g *EpochGate) Current() uint64 { return g.cur.Load() }

// WorkerOptions configures one worker connection.
type WorkerOptions struct {
	// ID names the worker in membership and placement. Required, and
	// must be unique across the cluster — a duplicate supersedes the
	// older connection.
	ID string
	// Log receives startup and per-assign events. Nil is silent.
	Log *slog.Logger
	// Gate is the fencing-epoch watermark, shared across connections when
	// the worker dials several coordinator addresses. Default: a private
	// gate for this connection.
	Gate *EpochGate
}

// RunWorker serves one coordinator connection until it closes or ctx is
// cancelled: join with a hello, heartbeat, install domains on assign,
// and answer each round with a reply carrying the decision (or the
// deterministic solver error). Round solves run concurrently — the
// coordinator serializes per-domain, so concurrency here only overlaps
// distinct domains.
func RunWorker(ctx context.Context, conn net.Conn, opts WorkerOptions) error {
	if opts.ID == "" {
		return errors.New("cluster: worker needs an ID")
	}
	host := NewSolverHost()
	gate := opts.Gate
	if gate == nil {
		gate = &EpochGate{}
	}
	log := opts.Log
	if log == nil {
		log = obslog.Nop()
	}
	log = log.With("worker", opts.ID)

	var wmu sync.Mutex
	send := func(m *Message) error { return writeFrame(conn, &wmu, m) }

	if err := send(&Message{Type: MsgHello, Worker: opts.ID}); err != nil {
		return fmt.Errorf("cluster: hello: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	welcome, err := readFrame(conn)
	if err != nil || welcome.Type != MsgWelcome {
		return fmt.Errorf("cluster: no welcome from coordinator (got %q): %w", welcome.Type, err)
	}
	conn.SetReadDeadline(time.Time{})
	if !gate.Admit(welcome.Epoch) {
		// The whole connection belongs to a deposed leader; drop it. The
		// redial loop in cmd/ovnes-worker will keep probing the address
		// until a current leader answers there.
		return fmt.Errorf("cluster: fencing: coordinator welcome carries stale leader epoch %d (newest known %d)",
			welcome.Epoch, gate.Current())
	}
	log.Info("joined coordinator", "epoch", welcome.Epoch)

	// Heartbeats and ctx cancellation live on a side goroutine; closing
	// the conn is what unblocks the read loop below.
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go func() {
		t := time.NewTicker(pingEvery)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				conn.Close()
				return
			case <-t.C:
				if send(&Message{Type: MsgPing, Worker: opts.ID}) != nil {
					return
				}
			}
		}
	}()

	for {
		msg, err := readFrame(conn)
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return ctx.Err()
			}
			return fmt.Errorf("cluster: worker read: %w", err)
		}
		switch msg.Type {
		case MsgAssign:
			if msg.Spec == nil {
				return errors.New("cluster: assign without spec")
			}
			if !gate.Admit(msg.Epoch) {
				log.Warn("fencing: rejected domain assign from stale leader epoch",
					"domain", msg.Spec.Name, "epoch", msg.Epoch, "newest", gate.Current())
				continue
			}
			if err := host.Register(*msg.Spec); err != nil {
				return err
			}
			log.Info("domain assigned", "domain", msg.Spec.Name, "algorithm", msg.Spec.Algorithm)
		case MsgRound:
			if !gate.Admit(msg.Epoch) {
				// Tell the stale leader why, by round ID, so its dispatch
				// fails fast (ErrFenced) instead of timing out into a local
				// solve it must never perform.
				log.Warn("fencing: rejected round dispatch from stale leader epoch",
					"domain", msg.Domain, "seq", msg.Seq, "epoch", msg.Epoch, "newest", gate.Current())
				_ = send(&Message{Type: MsgFenced, ID: msg.ID, Worker: opts.ID, Epoch: gate.Current()})
				continue
			}
			go func(m Message) {
				reply := Message{Type: MsgReply, ID: m.ID}
				dec, err := host.Solve(m.Domain, m.Events, m.Tenants)
				if err != nil {
					reply.Err = err.Error()
				} else {
					reply.Decision = dec
				}
				// A dead conn surfaces in the read loop; nothing to do here.
				_ = send(&reply)
			}(msg)
		default:
			// Unknown or unsolicited types (welcome, ping) are ignored so
			// the protocol can grow without breaking old workers.
		}
	}
}
