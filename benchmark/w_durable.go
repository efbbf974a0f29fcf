package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/monitor"
	"repro/internal/slice"
	"repro/internal/topology"
	"repro/internal/wal"
)

// The two durability workloads share one shape of engine — eight Testbed
// domains logging to one wal.Store — and use it in opposite directions:
// online-durable writes the log under load (append + fsync + batching
// dominate, the solves are tiny), crash-recover reads it back (open, replay,
// re-warm). A commit-path change that speeds one and slows the other shows.

const durableDomains = 8

var sliceTypes = []slice.Type{slice.EMBB, slice.URLLC, slice.MMTC}

// testbedRequest is the synthetic tenant request both workloads offer:
// mixed Table 1 types, two-epoch lifetime.
func testbedRequest(rng *rand.Rand, domain string, n int) admission.Request {
	ty := sliceTypes[rng.Intn(len(sliceTypes))]
	return admission.Request{
		Domain: domain, Name: fmt.Sprintf("%s-r%d", domain, n),
		SLA: slice.SLA{Template: slice.Table1(ty), Duration: 2}.WithPenaltyFactor(1),
	}
}

// swapLog lets an engine outlive the store it logs to: crash-recover extends
// the log through a NoSync store and serves the post-restart rounds through
// a syncing one, on the same engine. The inner log is swapped only between
// rounds, by the goroutine that drives them.
type swapLog struct{ roundLog }

// durableStack is one engine over one store.
type durableStack struct {
	p       *pass
	store   *wal.Store
	eng     *admission.Engine
	exec    *tracedExec
	domains []string
	mon     *monitor.Store // traced pass only: the engine's round_ms samples
	// countOnly books closed-loop decisions without a latency sample: in
	// online-durable the latency metrics belong to the open-loop phase.
	countOnly bool
}

// logFor wraps the store for the traced pass.
func logFor(p *pass, st *wal.Store) roundLog {
	if p.traced() {
		return &timedLog{p: p, inner: st}
	}
	return st
}

// newDurableStack builds an engine with durableDomains Testbed domains named
// prefix0.. over lg, not yet started.
func newDurableStack(p *pass, st *wal.Store, lg admission.RoundLog, prefix string, cfg admission.Config) (*durableStack, error) {
	s := &durableStack{p: p, store: st}
	cfg.Log = lg
	cfg.QueueDepth = 4096
	if p.traced() {
		s.mon = monitor.NewStore(0)
		cfg.Store = s.mon
		s.exec = localExec(p)
	}
	s.eng = admission.New(cfg)
	for d := 0; d < durableDomains; d++ {
		name := fmt.Sprintf("%s%d", prefix, d)
		dc := admission.DomainConfig{Net: topology.Testbed()}
		if s.exec != nil {
			if err := s.exec.register(name, dc); err != nil {
				return nil, err
			}
			dc.Executor = s.exec
		}
		t := time.Now()
		if err := s.eng.AddDomain(name, dc); err != nil {
			return nil, err
		}
		p.obs("admission.add_domain_ms", ms(time.Since(t)))
		s.domains = append(s.domains, name)
	}
	return s, nil
}

// stop stops the engine and files what the traced executor recorded.
func (s *durableStack) stop() {
	m := s.eng.Metrics()
	s.eng.Stop()
	p := s.p
	p.add("admission.shed", float64(m.Shed))
	p.add("admission.failed", float64(m.Failed))
	p.add("admission.fast_rejected", float64(m.FastRejected))
	p.add("admission.rounds", float64(m.Rounds))
	if s.exec != nil {
		p.mu.Lock()
		p.replay = append(p.replay, s.exec.recorded())
		p.mu.Unlock()
	}
}

// state renders every domain's recoverable state; two engines with equal
// state strings hold bit-identical decision state.
func (s *durableStack) state() (string, error) {
	var b strings.Builder
	for _, dom := range s.domains {
		st, err := s.eng.ExportDomain(dom)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s@%d:", st.Name, st.Rounds)
		for _, c := range st.Committed {
			fmt.Fprintf(&b, "%s/%d/%d/%v;", c.Name, c.Remaining, c.CU, c.Reserved)
		}
	}
	return b.String(), nil
}

// epoch runs one closed-loop epoch of one domain — n submissions, the round,
// the lifecycle tick — booking it when timed. next numbers the requests.
func (s *durableStack) epoch(driver int, dom string, rng *rand.Rand, n int, next *int, timed bool, fp *fingerprint) error {
	p := s.p
	p.opStart(driver)
	defer p.opEnd(driver)
	sent := make([]offered, 0, n)
	for k := 0; k < n; k++ {
		req := testbedRequest(rng, dom, *next)
		*next++
		t := time.Now()
		tk, err := s.eng.Submit(req)
		if timed {
			p.obs("admission.submit_us", us(time.Since(t)))
		}
		if err != nil {
			if timed {
				p.fail("submit "+req.Name, err)
			}
			continue
		}
		sent = append(sent, offered{req: req, tk: tk, sent: t})
	}
	start := time.Now()
	r, err := s.eng.DecideRound(dom)
	end := time.Now()
	if timed {
		p.round(end.Sub(start), err)
	}
	if err != nil {
		return err
	}
	if timed && p.traced() {
		p.tr.span("round", roundID(p.w.name, dom, r.Seq), "", start, end)
		p.obs("admission.decide_round_ms", ms(end.Sub(start)))
	}
	for _, o := range sent {
		out, ok := o.tk.Outcome()
		if !ok {
			if timed {
				p.decision(0, fmt.Errorf("%s undecided after its round: %v", o.req.Name, o.tk.Err()))
			}
			continue
		}
		if timed && s.countOnly {
			p.decided(1)
		} else if timed {
			p.decision(end.Sub(o.sent), nil)
			if p.traced() && !out.FastRejected {
				id := roundID(p.w.name, dom, out.Round) + "/" + out.Name
				p.tr.span("decision", id, "", o.sent, end)
				p.tr.span("admission.queue_wait", id, "decision", o.sent, start)
				p.obs("admission.queue_wait_ms", ms(start.Sub(o.sent)))
			}
		}
	}
	if fp != nil {
		fp.line("%s|%d|%s|%s", dom, r.Seq, strings.Join(r.Admitted, ","), strings.Join(r.Rejected, ","))
	}
	t := time.Now()
	_, err = s.eng.Advance(dom)
	if timed {
		p.obs("admission.advance_us", us(time.Since(t)))
	}
	return err
}

// snapshot writes an engine-only snapshot; call between rounds.
func (s *durableStack) snapshot() error {
	t := time.Now()
	snap, err := wal.BuildSnapshot(s.eng, s.domains, nil, nil)
	if err != nil {
		return err
	}
	if err := s.store.WriteSnapshot(snap); err != nil {
		return err
	}
	s.p.obs("wal.snapshot_ms", ms(time.Since(t)))
	return nil
}

func dirBytes(dir string) float64 {
	total := int64(0)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return float64(total)
}

// --- online-durable -------------------------------------------------------

const (
	durableEpochsPerUnit = 50 // × 8 domains = 400 rounds per unit
	durableUnitsPer10s   = 30
	openLoopRate         = 1000.0 // requests per second, Poisson
	openLoopPer10s       = 4000   // requests
	openLoopEpoch        = 16 * time.Millisecond
	// openLoopMaxBatch is small on purpose. A Testbed round costs 0.2 ms with
	// one fresh request, 2.5 ms with four and 43 ms (worst 140 ms) with
	// eight: with MaxBatch 8 one fsync hiccup fills the batches, every round
	// then takes longer than the requests it decides took to arrive, and the
	// engine never catches up again (3 of 10 passes ended with a median
	// decision latency of seconds). At 2 a backlog drains at several times
	// the arrival rate.
	openLoopMaxBatch = 2
	lateLimit        = 50 * time.Millisecond
)

func runOnlineDurable(p *pass) error {
	// Set-up: open the log, build and start the closed-loop engine. Phase
	// A's rounds are cut by DecideRound only, so its decisions are a function
	// of the inputs (the fingerprint); the batch never fills with one request
	// per epoch.
	var dir string
	a, err := measureSetup(p, func(i int) (*durableStack, error) {
		dir = filepath.Join(p.dir, fmt.Sprintf("online-%d", i))
		st, _, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			return nil, err
		}
		a, err := newDurableStack(p, st, logFor(p, st), "a", admission.Config{Shards: 2, MaxBatch: openLoopMaxBatch})
		if err != nil {
			return nil, err
		}
		return a, a.eng.Start()
	}, func(a *durableStack) {
		a.eng.Stop()
		a.store.Close()
		os.RemoveAll(dir)
	})
	if err != nil {
		return err
	}
	a.countOnly = true
	st := a.store
	defer st.Close()
	bytes0 := dirBytes(dir)

	// Phase A — closed loop, two drivers × four domains, one request per
	// epoch (with three, the cold solve of a six-tenant instance is 70 % of a
	// round and the workload stops being about the log): decisions_per_s and
	// round_* come from here.
	p.beginTimed()
	fps := make([]fingerprint, durableDomains)
	rngs := make([]*rand.Rand, durableDomains)
	next := make([]int, durableDomains)
	for d := range rngs {
		rngs[d] = rand.New(rand.NewSource(int64(mix(p.seed, 0, d))))
	}
	for u, n := 0, unitsFor(durableUnitsPer10s, p.seconds); u < n && !p.overBudget(); u++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for e := 0; e < durableEpochsPerUnit; e++ {
					for d := k; d < durableDomains; d += 2 {
						if errs[k] = a.epoch(k, a.domains[d], rngs[d], 1, &next[d], true, &fps[d]); errs[k] != nil {
							return
						}
					}
				}
			}(k)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if err := a.snapshot(); err != nil {
			return err
		}
		var f fingerprint
		for d := range fps {
			f.line("%s", fps[d].String())
		}
		p.unit(u, f.String())
	}
	a.stop()
	p.endTimed()
	p.closeRate()

	// Phase B — open loop: Poisson arrivals at a fixed rate into an engine
	// that cuts rounds by timer and batch size, as a serving deployment
	// does. decision_* comes from here, measured from each request's due
	// time. Which round a request lands in depends on timing, so its
	// admit/reject is not part of the fingerprint; what is checked is that
	// every request gets exactly one outcome.
	b, err := newDurableStack(p, st, logFor(p, st), "b", admission.Config{Shards: 2, MaxBatch: openLoopMaxBatch, FlushEvery: 2 * time.Millisecond})
	if err != nil {
		return err
	}
	if err := b.eng.Start(); err != nil {
		return err
	}
	p.beginTimed()
	if p.traced() {
		p.tr.rootOnly.Store(true)
	}
	err = openLoop(p, b, unitsFor(openLoopPer10s, p.seconds))
	mb := b.eng.Metrics()
	b.stop()
	p.endTimed()
	p.mu.Lock()
	p.rounds += int(mb.Rounds)
	p.mu.Unlock()
	p.add("admission.mean_batch", mb.MeanBatch)
	p.add("wal.bytes", dirBytes(dir)-bytes0)
	return err
}

// openLoop offers n requests on a Poisson schedule from this goroutine
// (which also ticks the domains' lifecycle clocks), while one harvester per
// domain timestamps outcomes in the order the domain resolves them.
func openLoop(p *pass, s *durableStack, n int) error {
	type inflight struct {
		tk  *admission.Ticket
		due time.Time
	}
	rng := rand.New(rand.NewSource(int64(mix(p.seed, 1, 0))))
	chans := make([]chan inflight, len(s.domains))
	var wg sync.WaitGroup
	decided := make([]int, len(s.domains))
	for d := range chans {
		// Buffered to the whole offer so the generator never blocks on a
		// harvester that is itself waiting for a round.
		chans[d] = make(chan inflight, n)
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for in := range chans[d] {
				<-in.tk.Done()
				lat := time.Since(in.due)
				out, ok := in.tk.Outcome()
				if !ok {
					p.decision(0, fmt.Errorf("open loop: %v", in.tk.Err()))
					continue
				}
				decided[d]++
				p.decision(lat, nil)
				p.add("admission.open_loop", 1)
				if lat > lateLimit {
					p.add("admission.late", 1)
				}
				if p.traced() && !out.FastRejected {
					// queue wait = latency minus the deciding round's own
					// time, as the engine published it.
					roundMs := 0.0
					for _, sm := range s.mon.ElementEpochSamples("admission", "round_ms", s.domains[d], int(out.Round)) {
						roundMs = sm.Value
					}
					p.obs("admission.queue_wait_ms", ms(lat)-roundMs)
				}
			}
		}(d)
	}
	p.opStart(0)
	start := time.Now()
	due := start
	nextTick, tickDom := start.Add(openLoopEpoch/durableDomains), 0
	submitted := 0
	for i := 0; i < n; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / openLoopRate * float64(time.Second)))
		for {
			now := time.Now()
			if !nextTick.After(now) {
				if _, err := s.eng.Advance(s.domains[tickDom]); err != nil {
					return err
				}
				tickDom = (tickDom + 1) % len(s.domains)
				nextTick = nextTick.Add(openLoopEpoch / durableDomains)
				continue
			}
			if !due.After(now) {
				break
			}
			wake := due
			if nextTick.Before(wake) {
				wake = nextTick
			}
			time.Sleep(wake.Sub(now))
		}
		p.obs("proc.sched_lag_ms", ms(time.Since(due)))
		d := rng.Intn(len(s.domains))
		tk, err := s.eng.Submit(testbedRequest(rng, s.domains[d], i))
		if err != nil {
			p.fail("open-loop submit", err)
			continue
		}
		submitted++
		chans[d] <- inflight{tk, due}
		p.opStart(0)
	}
	p.opEnd(0)
	ctx, cancel := context.WithTimeout(context.Background(), opLimit)
	defer cancel()
	derr := s.eng.Drain(ctx)
	for _, c := range chans {
		close(c)
	}
	wg.Wait()
	if derr != nil {
		return derr
	}
	total := 0
	for _, c := range decided {
		total += c
	}
	if total != submitted {
		p.violate("open loop: %d requests accepted, %d outcomes delivered", submitted, total)
	}
	return nil
}

// --- crash-recover --------------------------------------------------------

const (
	recoverCyclesPer10s = 32
	recoverPrefix       = 64  // rounds logged before each cycle's snapshot
	recoverSuffix       = 128 // rounds a typical recovery replays; every third replays twice as many
)

func runCrashRecover(p *pass) error {
	rng := rand.New(rand.NewSource(int64(mix(p.seed, 2, 0))))
	lg := &swapLog{}

	// open opens the directory and attaches the store to the swap log;
	// build makes a fresh unstarted engine over the swap log.
	var dir string
	open := func(nosync bool) (*wal.Store, *wal.Recovered, error) {
		st, rec, err := wal.Open(wal.Options{Dir: dir, NoSync: nosync})
		if err == nil {
			lg.roundLog = logFor(p, st)
		}
		return st, rec, err
	}
	build := func(st *wal.Store) (*durableStack, error) {
		return newDurableStack(p, st, lg, "d", admission.Config{Shards: 2})
	}

	// Set-up: a fresh log and a started engine.
	s, err := measureSetup(p, func(i int) (*durableStack, error) {
		dir = filepath.Join(p.dir, fmt.Sprintf("recover-%d", i))
		st, _, err := open(true)
		if err != nil {
			return nil, err
		}
		s, err := build(st)
		if err != nil {
			return nil, err
		}
		return s, s.eng.Start()
	}, func(s *durableStack) {
		s.eng.Stop()
		s.store.Close()
		os.RemoveAll(dir)
	})
	if err != nil {
		return err
	}
	defer func() {
		s.stop()
		s.store.Close()
	}()

	// extend runs whole epochs (one round per domain) until at least rounds
	// rounds have been logged. An epoch offers one to three requests per
	// domain on a fixed 1-2-3 cycle, so that every pass logs (and every
	// recovery replays) the same number of decisions; the seed picks their
	// types.
	next := make([]int, durableDomains)
	var fp fingerprint
	epochs := 0
	extend := func(rounds int) error {
		for done := 0; done < rounds; done += len(s.domains) {
			for di, dom := range s.domains {
				if err := s.epoch(0, dom, rng, 1+epochs%3, &next[di], false, &fp); err != nil {
					return err
				}
			}
			epochs++
		}
		return nil
	}
	n := unitsFor(recoverCyclesPer10s, p.seconds)
	for c := 0; c < n && !p.overBudget(); c++ {
		// Untimed: extend the log without fsync, snapshot, then log the
		// suffix recovery will have to replay. Two cycles in three replay
		// recoverSuffix rounds — the median restart averages over all of
		// them — and every third replays twice that: the long restarts are
		// the top third, and the tail percentile sits in their middle. (With
		// suffix lengths spread evenly over a range, the median restart was
		// whichever single cycle came out in the middle, and moved by 19 %
		// from pass to pass.)
		fp = fingerprint{}
		if err := extend(recoverPrefix); err != nil {
			return err
		}
		if err := s.snapshot(); err != nil {
			return err
		}
		suffix := recoverSuffix
		if c%3 == 2 {
			suffix *= 2
		}
		if err := extend(suffix); err != nil {
			return err
		}
		before, err := s.state()
		if err != nil {
			return err
		}
		if p.traced() {
			tailPoll(p, dir)
		}

		// Timed: kill, reopen, replay, re-warm, first acks.
		p.beginTimed()
		p.opStart(0)
		kill := time.Now()
		s.stop()
		s.store.Abort()
		st, rec, err := open(false)
		opened := time.Now()
		if err != nil {
			p.fail("wal.Open", err)
			return err
		}
		if s, err = build(st); err != nil {
			return err
		}
		rep, err := wal.Recover(st, rec, wal.Target{Engine: s.eng})
		recovered := time.Now()
		if err != nil {
			p.fail("wal.Recover", err)
			return err
		}
		after, err := s.state()
		if err != nil {
			return err
		}
		if err := s.eng.Start(); err != nil {
			return err
		}
		p.opEnd(0)
		for di, dom := range s.domains {
			req := testbedRequest(rng, dom, next[di])
			next[di]++
			p.opStart(0)
			tk, err := s.eng.Submit(req)
			if err != nil {
				p.fail("post-restart submit", err)
				continue
			}
			start := time.Now()
			r, err := s.eng.DecideRound(dom)
			end := time.Now()
			p.opEnd(0)
			p.round(end.Sub(start), err)
			if err != nil {
				return err
			}
			if _, ok := tk.Outcome(); !ok {
				p.decision(0, fmt.Errorf("%s undecided after restart: %v", req.Name, tk.Err()))
			} else {
				p.decision(end.Sub(kill), nil) // kill instant → first post-restart ack
			}
			if p.traced() {
				p.tr.span("round", roundID(p.w.name, dom, r.Seq), "", start, end)
				p.obs("admission.decide_round_ms", ms(end.Sub(start)))
			}
			fp.line("%s|%d|%s|%s", dom, r.Seq, strings.Join(r.Admitted, ","), strings.Join(r.Rejected, ","))
			if _, err := s.eng.Advance(dom); err != nil {
				return err
			}
		}
		p.endTimed()

		// Replayed decisions count toward decisions_per_s: recovery re-made
		// every one of them.
		replayed := 0
		for _, pr := range rec.Records {
			if pr.Rec.Kind == wal.KindRound {
				replayed += len(pr.Rec.Batch)
			}
		}
		p.decided(replayed)
		if before != after {
			p.violate("cycle %d: recovered state differs from the state at the kill", c)
		}
		id := fmt.Sprintf("%s/cycle/%d", p.w.name, c)
		if p.traced() {
			p.tr.span("restart", id, "", kill, recovered)
			p.tr.span("wal.open", id, "restart", kill, opened)
			p.tr.span("wal.recover", id, "restart", opened, recovered)
		}
		p.obs("wal.open_ms", ms(opened.Sub(kill)))
		p.obs("wal.recover_ms", ms(recovered.Sub(opened)))
		p.add("wal.replayed_rounds", float64(rep.Rounds))
		p.add("wal.recover_s", recovered.Sub(opened).Seconds())
		if rep.Rounds > 0 {
			p.obs("admission.replay_round_us", us(recovered.Sub(opened))/float64(rep.Rounds))
		}
		fp.line("%s", after)
		p.unit(c, fp.String())

		// Untimed: the next extension writes through a NoSync store.
		if err := st.Close(); err != nil {
			return err
		}
		nst, _, err := open(true)
		if err != nil {
			return err
		}
		s.store = nst
	}
	return nil
}

// tailPoll times a standby's read of the log as it stands: open a tailer
// and poll it dry.
func tailPoll(p *pass, dir string) {
	t, err := wal.OpenTailer(dir)
	if err != nil {
		return
	}
	defer t.Close()
	for {
		start := time.Now()
		recs, err := t.Poll()
		p.obs("wal.tail_poll_us", us(time.Since(start)))
		if err != nil || len(recs) == 0 {
			return
		}
	}
}
