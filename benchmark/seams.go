package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/reopt"
	"repro/internal/topology"
	"repro/internal/wal"
	"repro/internal/yield"
)

// The wrappers in this file are the traced pass's instrumentation: each sits
// on a seam the packages already export (admission.Executor, admission.
// RoundLog + reopt.StepLog, http.Handler, net.Conn) and records a span and a
// per-layer sample around the call it forwards. None of them may move a
// decision — the fingerprint check between the two passes enforces that.

// solveFunc is admission.Executor.SolveRound as a function value: the local
// solver or cluster.Coordinator.SolveRound.
type solveFunc func(domain string, seq uint64, events []topology.Event, tenants []core.TenantSpec) (*core.Decision, error)

// roundInput is one round's solver input as the executor seam saw it, kept
// for instance replay after the pass.
type roundInput struct {
	domain  string
	events  []topology.Event
	tenants []core.TenantSpec
}

// tracedExec is an admission.Executor that times the solve it forwards and
// records the round's inputs.
type tracedExec struct {
	p     *pass
	inner solveFunc
	// child names the span of the forwarded call: "core.solve" for the
	// in-process solver, "cluster.solve_round" for a coordinator.
	child string
	// parent names the span a solve hangs under: "round", or the northbound
	// handler's span when the round is an HTTP call.
	parent string
	local  *instanceBuilder // localExec only

	mu       sync.Mutex
	domains  map[string]admission.DomainConfig
	sessions map[string]*core.BendersSession
	inputs   []roundInput
}

// localExec builds the executor used by the traced pass of the in-process
// workloads: the same solve the engine would run itself — one warm
// BendersSession per domain over canonically assembled instances — moved
// behind the Executor seam so that it can be timed from outside. (It does
// not go through cluster.SolverHost, which ships the topology as JSON and
// cannot yet carry a metro pod.)
func localExec(p *pass) *tracedExec {
	x := &tracedExec{p: p, child: "core.solve", parent: "round", local: newInstanceBuilder(),
		domains: map[string]admission.DomainConfig{}, sessions: map[string]*core.BendersSession{}}
	x.inner = func(domain string, _ uint64, ev []topology.Event, ten []core.TenantSpec) (*core.Decision, error) {
		inst, err := x.local.build(domain, ev, ten)
		if err != nil {
			return nil, err
		}
		x.mu.Lock()
		sess := x.sessions[domain]
		x.mu.Unlock()
		return sess.Solve(inst) // one round per domain at a time: the engine holds the domain lock
	}
	return x
}

// register makes a domain solvable (on the local solver, when there is one)
// and remembers its config for instance replay.
func (x *tracedExec) register(name string, dc admission.DomainConfig) error {
	if x.local != nil {
		if nd, err := dc.Normalized(); err != nil {
			return err
		} else if nd.Algorithm != "benders" {
			return fmt.Errorf("benchmark: local executor solves benders domains only, %q is %s", name, nd.Algorithm)
		}
		if err := x.local.register(name, dc); err != nil {
			return err
		}
	}
	x.mu.Lock()
	x.domains[name] = dc
	if x.local != nil {
		x.sessions[name] = core.NewBendersSession(dc.Benders)
	}
	x.mu.Unlock()
	return nil
}

// recorded returns everything the executor saw, for instance replay.
func (x *tracedExec) recorded() replaySet {
	x.mu.Lock()
	defer x.mu.Unlock()
	return replaySet{domains: x.domains, inputs: x.inputs}
}

func (x *tracedExec) SolveRound(domain string, seq uint64, events []topology.Event, tenants []core.TenantSpec) (*core.Decision, error) {
	if !x.p.recording() {
		return x.inner(domain, seq, events, tenants)
	}
	start := time.Now()
	dec, err := x.inner(domain, seq, events, tenants)
	end := time.Now()
	id := roundID(x.p.w.name, domain, seq)
	x.p.tr.span("solve", id, x.parent, start, end)
	x.p.tr.span(x.child, id, "solve", start, end)
	d := end.Sub(start)
	if x.child == "core.solve" {
		x.p.obs("core.solve_ms", ms(d))
	} else {
		x.p.obs("cluster.solve_round_ms", ms(d))
	}
	if err == nil {
		x.p.add("core.benders_iters", float64(dec.Iterations))
		x.p.add("core.solves", 1)
		if dec.FellBack {
			x.p.add("core.fellback_rounds", 1)
		}
	}
	x.mu.Lock()
	x.inputs = append(x.inputs, roundInput{domain: domain,
		events:  append([]topology.Event(nil), events...),
		tenants: append([]core.TenantSpec(nil), tenants...)})
	x.mu.Unlock()
	return dec, err
}

// roundLog is what the engine and the controller need from a WAL store.
type roundLog interface {
	admission.RoundLog
	reopt.StepLog
}

// timedLog forwards to a *wal.Store, timing every append and sync. A record
// appended for a round hangs under that round's span; the records appended
// between rounds (forecasts, advances, topology) are roots of their own.
type timedLog struct {
	p     *pass
	inner *wal.Store
}

var _ roundLog = (*timedLog)(nil)

func (l *timedLog) append(id, parent string, fn func() error) error {
	if !l.p.recording() {
		return fn()
	}
	l.p.tr.setCur(id, parent)
	start := time.Now()
	err := fn()
	end := time.Now()
	l.p.tr.span("wal.append", id, parent, start, end)
	l.p.obs("wal.append_us", us(end.Sub(start)))
	l.p.add("wal.records", 1)
	return err
}

func (l *timedLog) between(domain, kind string, fn func() error) error {
	return l.append(l.p.w.name+"/"+domain+"/"+kind, "", fn)
}

func (l *timedLog) AppendRound(domain string, seq uint64, batch []admission.Request) error {
	return l.append(roundID(l.p.w.name, domain, seq), "round", func() error { return l.inner.AppendRound(domain, seq, batch) })
}

func (l *timedLog) AppendForecasts(domain string, ups []admission.ForecastUpdate) error {
	return l.between(domain, "forecasts", func() error { return l.inner.AppendForecasts(domain, ups) })
}

func (l *timedLog) AppendAdvance(domain string) error {
	return l.between(domain, "advance", func() error { return l.inner.AppendAdvance(domain) })
}

func (l *timedLog) AppendTopology(domain string, events []topology.Event) error {
	return l.between(domain, "topology", func() error { return l.inner.AppendTopology(domain, events) })
}

func (l *timedLog) AppendHandover(from, to, name string) error {
	return l.between(from, "handover", func() error { return l.inner.AppendHandover(from, to, name) })
}

func (l *timedLog) AppendSettle(domain string, epoch int, entries []yield.Entry) error {
	return l.between(domain, "settle", func() error { return l.inner.AppendSettle(domain, epoch, entries) })
}

func (l *timedLog) AppendObserve(domain string, epoch int, alive []string, peaks []reopt.ObservedPeak) error {
	return l.between(domain, "observe", func() error { return l.inner.AppendObserve(domain, epoch, alive, peaks) })
}

// SyncRound carries no domain: the sync belongs with whatever the same
// goroutine appended last (the engine appends a round's record and syncs it
// on one goroutine, under the domain lock).
func (l *timedLog) SyncRound() error {
	if !l.p.recording() {
		return l.inner.SyncRound()
	}
	id, parent := l.p.tr.getCur()
	start := time.Now()
	err := l.inner.SyncRound()
	end := time.Now()
	l.p.tr.span("wal.sync", id, parent, start, end)
	l.p.obs("wal.sync_ms", ms(end.Sub(start)))
	return err
}

// timedHandler wraps an http.Handler, reporting each request's server-side
// duration to observe.
type timedHandler struct {
	inner   http.Handler
	observe func(r *http.Request, start, end time.Time)
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	h.observe(r, start, time.Now())
}

// countingConn counts the bytes (when bytes is set — one end suffices, it
// sees both directions) and the Write calls crossing a connection; both ends
// of the cluster protocol write exactly one frame per call.
type countingConn struct {
	net.Conn
	bytes  *atomic.Int64
	frames *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.bytes != nil {
		c.bytes.Add(int64(n))
	}
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if c.bytes != nil {
		c.bytes.Add(int64(n))
	}
	c.frames.Add(1)
	return n, err
}
