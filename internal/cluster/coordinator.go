package cluster

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/obslog"
	"repro/internal/topology"
)

// CoordinatorOptions tunes the control plane. The zero value is usable:
// a silent logger, seed 0, and production-shaped timeouts.
type CoordinatorOptions struct {
	// Seed parameterizes the rendezvous placement. Any fixed value is
	// fine; it exists so tests can pin interesting assignments.
	Seed uint64
	// Log receives membership and rebalance events. Zero value is silent.
	Log obslog.Logger
	// HeartbeatTimeout declares a worker dead when no frame (heartbeats
	// included) arrives for this long. Default 5s.
	HeartbeatTimeout time.Duration
	// DispatchTimeout bounds how long one round may chase workers
	// (including re-dispatch after a worker death) before the
	// coordinator declines it back to the engine. Default 15s.
	DispatchTimeout time.Duration
	// Epoch is the fencing epoch of the leader lease this coordinator
	// dispatches under, stamped on every welcome/assign/round frame.
	// Workers reject frames below the newest epoch they have seen, so a
	// deposed leader's dispatches bounce instead of double-deciding.
	// Zero means "no lease" (the pre-replication single-leader mode).
	Epoch uint64
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * time.Second
	}
	if o.DispatchTimeout <= 0 {
		o.DispatchTimeout = 15 * time.Second
	}
	return o
}

// Coordinator owns cluster membership and dispatches round solves to
// workers. It implements admission.Executor, so plugging it into
// DomainConfig.Executor is the whole integration: the engine keeps all
// state and the WAL; only the pure solve call leaves the process.
//
// Losing a worker mid-round is safe by construction: the round's inputs
// are immutable for the duration of the call (the engine holds its
// domain lock), so the coordinator just re-dispatches them to the new
// rendezvous owner — or, with no worker left or past DispatchTimeout,
// declines the round with admission.ErrNoWorker and the engine solves it
// on the domain's own solver — and the decision is bit-identical either
// way. The coordinator keeps no solver of its own.
type Coordinator struct {
	opts   CoordinatorOptions
	nextID atomic.Uint64
	fenced atomic.Bool // a worker saw a newer epoch; dispatching must stop

	mu      sync.Mutex
	specs   map[string]DomainSpec
	members map[string]*memberConn
	watch   chan struct{} // closed and replaced on every membership change
	ln      net.Listener
	closed  bool
	done    chan struct{} // stops the liveness sweeper
}

// memberConn is one live worker connection.
type memberConn struct {
	id   string
	conn net.Conn

	wmu sync.Mutex // serializes frame writes (assign-before-round ordering)

	mu       sync.Mutex
	pending  map[uint64]chan *Message
	assigned map[string]bool
	lastSeen time.Time
	dead     chan struct{} // closed when the member is removed
}

// NewCoordinator builds a coordinator with no members and no domains.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	c := &Coordinator{
		opts:    opts.withDefaults(),
		specs:   map[string]DomainSpec{},
		members: map[string]*memberConn{},
		watch:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.sweep()
	return c
}

// RegisterDomain captures a domain's config for the wire. Call it with the
// same name and config passed to engine.AddDomain, before the first round.
// A spec whose topology a worker could not load is refused here, not at a
// worker's first assign.
func (c *Coordinator) RegisterDomain(name string, dc admission.DomainConfig) error {
	spec, err := NewDomainSpec(name, dc)
	if err != nil {
		return err
	}
	if _, err := spec.network(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("cluster: coordinator closed")
	}
	c.specs[spec.Name] = spec
	return nil
}

// Listen accepts worker connections on addr ("host:port"; port 0 picks a
// free one) and returns the bound address.
func (c *Coordinator) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("cluster: listen: %w", err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("cluster: coordinator closed")
	}
	c.ln = ln
	c.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			c.AddConn(conn)
		}
	}()
	return ln.Addr().String(), nil
}

// AddConn adopts an established connection (TCP from Listen, or one end
// of a net.Pipe for loopback workers) and runs the join handshake in the
// background.
func (c *Coordinator) AddConn(conn net.Conn) {
	go func() {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		hello, err := readFrame(conn)
		if err != nil || hello.Type != MsgHello || hello.Worker == "" {
			c.opts.Log.Warn().Err(err).Msg("cluster: rejected connection: bad hello")
			conn.Close()
			return
		}
		conn.SetReadDeadline(time.Time{})
		m := &memberConn{
			id:       hello.Worker,
			conn:     conn,
			pending:  map[uint64]chan *Message{},
			assigned: map[string]bool{},
			lastSeen: time.Now(),
			dead:     make(chan struct{}),
		}
		if err := m.send(&Message{Type: MsgWelcome, Worker: hello.Worker, Epoch: c.opts.Epoch}); err != nil {
			conn.Close()
			return
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		if old := c.members[m.id]; old != nil {
			// A reconnect with the same ID supersedes the stale conn.
			c.dropLocked(old)
		}
		c.members[m.id] = m
		c.bumpWatchLocked()
		c.mu.Unlock()
		c.opts.Log.Info().Str("worker", m.id).Msg("worker joined")
		c.readLoop(m)
	}()
}

// readLoop drains one member's frames until the connection dies.
func (c *Coordinator) readLoop(m *memberConn) {
	defer c.remove(m, "connection lost")
	for {
		msg, err := readFrame(m.conn)
		if err != nil {
			return
		}
		if msg.Type == MsgFenced && !c.fenced.Swap(true) {
			c.opts.Log.Error().Str("worker", m.id).Uint64("epoch", c.opts.Epoch).
				Uint64("newer", msg.Epoch).
				Msg("coordinator fenced: worker rejected dispatch from a stale leader epoch")
		}
		m.mu.Lock()
		m.lastSeen = time.Now()
		if msg.Type == MsgReply || msg.Type == MsgFenced {
			if ch := m.pending[msg.ID]; ch != nil {
				delete(m.pending, msg.ID)
				mm := msg
				ch <- &mm
			}
		}
		m.mu.Unlock()
	}
}

// remove retires a member: membership shrinks, waiters on the member's
// dead channel (in-flight rounds) wake up and re-dispatch.
func (c *Coordinator) remove(m *memberConn, why string) {
	c.mu.Lock()
	if c.members[m.id] != m {
		c.mu.Unlock()
		return // already superseded or removed
	}
	delete(c.members, m.id)
	c.dropLocked(m)
	c.bumpWatchLocked()
	n := len(c.members)
	c.mu.Unlock()
	c.opts.Log.Warn().Str("worker", m.id).Str("reason", why).Int("members", n).
		Msg("worker left; rebalancing its domains to surviving workers")
}

// dropLocked closes a member's resources. Caller holds c.mu.
func (c *Coordinator) dropLocked(m *memberConn) {
	m.conn.Close()
	m.mu.Lock()
	select {
	case <-m.dead:
	default:
		close(m.dead)
	}
	m.mu.Unlock()
}

func (c *Coordinator) bumpWatchLocked() {
	close(c.watch)
	c.watch = make(chan struct{})
}

// sweep declares silent members dead on heartbeat timeout.
func (c *Coordinator) sweep() {
	t := time.NewTicker(c.opts.HeartbeatTimeout / 2)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-c.opts.HeartbeatTimeout)
		c.mu.Lock()
		var stale []*memberConn
		for _, m := range c.members {
			m.mu.Lock()
			if m.lastSeen.Before(cutoff) {
				stale = append(stale, m)
			}
			m.mu.Unlock()
		}
		c.mu.Unlock()
		for _, m := range stale {
			// Closing the conn makes readLoop exit, which removes the
			// member and wakes its in-flight rounds.
			c.opts.Log.Warn().Str("worker", m.id).Dur("timeout", c.opts.HeartbeatTimeout).
				Msg("worker heartbeat timed out")
			m.conn.Close()
		}
	}
}

// Members returns the live worker IDs, sorted.
func (c *Coordinator) Members() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := c.memberIDsLocked()
	sort.Strings(ids)
	return ids
}

func (c *Coordinator) memberIDsLocked() []string {
	ids := make([]string, 0, len(c.members))
	for id := range c.members {
		ids = append(ids, id)
	}
	return ids
}

// WaitMembers blocks until at least n workers are live or ctx expires.
func (c *Coordinator) WaitMembers(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		cnt, w := len(c.members), c.watch
		c.mu.Unlock()
		if cnt >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: waiting for %d workers (have %d): %w", n, cnt, ctx.Err())
		case <-w:
		}
	}
}

// owner resolves the domain's current rendezvous owner, or nil when no
// workers are live.
func (c *Coordinator) owner(domain string) *memberConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := placeDomain(c.opts.Seed, domain, c.memberIDsLocked())
	if !ok {
		return nil
	}
	return c.members[id]
}

// OwnerOf reports the live member the rendezvous placement currently
// assigns the domain to ("", false when no workers are live). Diagnostic:
// placement is resolved fresh on every dispatch, so the answer is only as
// durable as the membership behind it.
func (c *Coordinator) OwnerOf(domain string) (string, bool) {
	m := c.owner(domain)
	if m == nil {
		return "", false
	}
	return m.id, true
}

// ErrFenced reports that a worker rejected this coordinator's dispatch
// because a newer leader epoch is active. It is not admission.ErrNoWorker,
// so the engine fails the round instead of solving it locally: a fenced
// leader deciding rounds on its own is exactly the split brain fencing
// exists to prevent.
var ErrFenced = fmt.Errorf("cluster: coordinator fenced: a newer leader epoch is active")

// Fenced reports whether a worker has rejected this coordinator as stale.
func (c *Coordinator) Fenced() bool { return c.fenced.Load() }

// SolveRound implements admission.Executor: dispatch the round to the
// domain's rendezvous owner, re-dispatching on worker death, and decline it
// with admission.ErrNoWorker when no worker is live or none answers within
// DispatchTimeout — the engine then solves it on its own solver. Every path
// yields the bit-identical decision because the solve is a pure function of
// the arguments (plus the domain spec both sides hold) — except fencing:
// once any worker reports a newer leader epoch, SolveRound fails fast with
// ErrFenced, which the engine never solves locally.
func (c *Coordinator) SolveRound(domain string, seq uint64, events []topology.Event, tenants []core.TenantSpec) (*core.Decision, error) {
	deadline := time.Now().Add(c.opts.DispatchTimeout)
	for attempt := 0; ; attempt++ {
		if c.fenced.Load() {
			return nil, ErrFenced
		}
		m := c.owner(domain)
		if m == nil || time.Now().After(deadline) {
			c.opts.Log.Warn().Str("domain", domain).Uint64("seq", seq).Int("attempt", attempt).
				Msg("no worker answered in time; declining round to the engine's own solver")
			return nil, admission.ErrNoWorker
		}
		if attempt > 0 {
			c.opts.Log.Info().Str("domain", domain).Uint64("seq", seq).Str("worker", m.id).
				Msg("re-dispatching in-flight round after rebalance")
		}
		dec, err, retry := c.dispatch(m, domain, seq, events, tenants, deadline)
		if !retry {
			return dec, err
		}
	}
}

// dispatch sends one round to one member and waits for the reply. retry
// is true when the member died or timed out and the caller should pick a
// new owner; a solver error is deterministic and is returned as final.
func (c *Coordinator) dispatch(m *memberConn, domain string, seq uint64, events []topology.Event, tenants []core.TenantSpec, deadline time.Time) (dec *core.Decision, err error, retry bool) {
	// Lazily install the domain on this worker. The assign frame goes
	// down the same ordered connection as the round, so it always lands
	// first.
	m.mu.Lock()
	needAssign := !m.assigned[domain]
	if needAssign {
		m.assigned[domain] = true
	}
	m.mu.Unlock()
	if needAssign {
		c.mu.Lock()
		spec, ok := c.specs[domain]
		c.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("cluster: domain %q not registered with coordinator", domain), false
		}
		if err := m.send(&Message{Type: MsgAssign, Spec: &spec, Epoch: c.opts.Epoch}); err != nil {
			m.conn.Close()
			return nil, nil, true
		}
	}

	id := c.nextID.Add(1)
	ch := make(chan *Message, 1)
	m.mu.Lock()
	m.pending[id] = ch
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.pending, id)
		m.mu.Unlock()
	}()

	msg := &Message{Type: MsgRound, ID: id, Domain: domain, Seq: seq, Events: events, Tenants: tenants, Epoch: c.opts.Epoch}
	if err := m.send(msg); err != nil {
		m.conn.Close()
		return nil, nil, true
	}

	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case reply := <-ch:
		if reply.Type == MsgFenced {
			return nil, ErrFenced, false
		}
		if reply.Err != "" {
			return nil, fmt.Errorf("cluster: worker %s: %s", m.id, reply.Err), false
		}
		if reply.Decision == nil {
			return nil, fmt.Errorf("cluster: worker %s: reply without decision", m.id), false
		}
		return reply.Decision, nil, false
	case <-m.dead:
		return nil, nil, true
	case <-timer.C:
		// The worker is unresponsive for this round; the deadline check
		// in SolveRound turns this retry into a decline.
		return nil, nil, true
	}
}

// send writes one frame; safe for concurrent use.
func (m *memberConn) send(msg *Message) error { return writeFrame(m.conn, &m.wmu, msg) }

// Close shuts the listener and every worker connection down.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	ln := c.ln
	members := make([]*memberConn, 0, len(c.members))
	for _, m := range c.members {
		members = append(members, m)
	}
	c.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, m := range members {
		m.conn.Close()
	}
	return nil
}
