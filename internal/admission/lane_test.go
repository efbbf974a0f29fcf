package admission

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/slice"
	"repro/internal/topology"
)

// laneExec is the Executor double the lane tests watch rounds through. Each
// call records its (domain, seq, tenant names) and whether DecideRound is on
// the calling goroutine's stack, counts itself into the in-flight gauges
// (overall and per shard), and — while gate is set — announces itself on
// entered and waits for the gate to close. The solve itself is the domain's
// own LocalSolver, so decisions are real.
type laneExec struct {
	shardOf map[string]int
	solvers map[string]*LocalSolver

	gate    atomic.Pointer[chan struct{}]
	entered chan string

	inFlight    atomic.Int32
	maxInFlight atomic.Int32
	perShard    [4]atomic.Int32
	maxPerShard atomic.Int32

	mu    sync.Mutex
	calls []laneCall
}

type laneCall struct {
	domain   string
	seq      uint64
	names    string
	onCaller bool
}

func raise(max *atomic.Int32, v int32) {
	for {
		m := max.Load()
		if v <= m || max.CompareAndSwap(m, v) {
			return
		}
	}
}

func (x *laneExec) SolveRound(domain string, seq uint64, events []topology.Event, tenants []core.TenantSpec) (*core.Decision, error) {
	raise(&x.maxInFlight, x.inFlight.Add(1))
	defer x.inFlight.Add(-1)
	sh := &x.perShard[x.shardOf[domain]]
	raise(&x.maxPerShard, sh.Add(1))
	defer sh.Add(-1)

	x.mu.Lock()
	x.calls = append(x.calls, laneCall{domain, seq, strings.Join(specNames(tenants), ","), decideRoundOnStack()})
	x.mu.Unlock()
	if g := x.gate.Load(); g != nil {
		x.entered <- domain
		<-*g
	}
	return x.solvers[domain].SolveRound(domain, seq, events, tenants)
}

// block makes every following call wait; the returned func releases them all.
func (x *laneExec) block() (release func()) {
	g := make(chan struct{})
	x.gate.Store(&g)
	return func() { x.gate.Store(nil); close(g) }
}

func (x *laneExec) recorded() []laneCall {
	x.mu.Lock()
	defer x.mu.Unlock()
	return append([]laneCall(nil), x.calls...)
}

// decideRoundOnStack reports whether (*Engine).DecideRound is a frame of the
// calling goroutine — true exactly when the round runs on its caller.
func decideRoundOnStack() bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(0, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "(*Engine).DecideRound") {
			return true
		}
		if !more {
			return false
		}
	}
}

// newLaneEngine builds a started engine whose domains (in the given order,
// hence round-robin over the shards) all solve through one laneExec.
func newLaneEngine(t *testing.T, cfg Config, domains ...string) (*Engine, *laneExec) {
	t.Helper()
	x := &laneExec{shardOf: map[string]int{}, solvers: map[string]*LocalSolver{}, entered: make(chan string, 16)}
	e := New(cfg)
	for i, name := range domains {
		dc, err := DomainConfig{Net: topology.Testbed(), Algorithm: "direct"}.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		if x.solvers[name], err = NewLocalSolver(dc); err != nil {
			t.Fatal(err)
		}
		x.shardOf[name] = i % e.cfg.Shards
		dc.Executor = x
		if err := e.AddDomain(name, dc); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e, x
}

func mustSubmit(t *testing.T, e *Engine, domain, name string) *Ticket {
	t.Helper()
	tk, err := e.Submit(Request{Domain: domain, Name: name, SLA: testSLA(slice.EMBB, 8)})
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

// waitQueued returns once n rounds wait on the shard's lane.
func waitQueued(t *testing.T, e *Engine, shard, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		e.mu.Lock()
		got := len(e.shards[shard].queue)
		e.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d has %d rounds queued, want %d", shard, got, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

type roundResult struct {
	r   *Round
	err error
}

func decideAsync(e *Engine, domain string) <-chan roundResult {
	ch := make(chan roundResult, 1)
	go func() {
		r, err := e.DecideRound(domain)
		ch <- roundResult{r, err}
	}()
	return ch
}

func TestIdleLaneRunsRoundOnCaller(t *testing.T) {
	e, x := newLaneEngine(t, Config{}, "a")

	// Idle lane: the round runs on the goroutine that asked for it.
	mustSubmit(t, e, "a", "s1")
	if _, err := e.DecideRound("a"); err != nil {
		t.Fatal(err)
	}
	// Busy lane: a second caller queues and the worker runs its round.
	release := x.block()
	first := decideAsync(e, "a")
	<-x.entered
	second := decideAsync(e, "a")
	waitQueued(t, e, 0, 1)
	release()
	for _, ch := range []<-chan roundResult{first, second} {
		if res := <-ch; res.err != nil {
			t.Fatal(res.err)
		}
	}

	want := []laneCall{{"a", 0, "s1", true}, {"a", 1, "s1", true}, {"a", 2, "s1", false}}
	if got := x.recorded(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rounds ran as %+v, want %+v", got, want)
	}
	// The worker left with the queue: the lane is idle again and the next
	// caller runs its own round.
	if _, err := e.DecideRound("a"); err != nil {
		t.Fatal(err)
	}
	if c := x.recorded()[3]; !c.onCaller || c.seq != 3 {
		t.Fatalf("round after the lane drained: %+v, want seq 3 on its caller", c)
	}
}

func TestBusyLaneQueuesInOrder(t *testing.T) {
	// a and c share shard 0, b has shard 1 to itself.
	e, x := newLaneEngine(t, Config{Shards: 2, MaxBatch: 2}, "a", "b", "c")

	mustSubmit(t, e, "a", "a1")
	release := x.block()
	first := decideAsync(e, "a")
	<-x.entered // round a/0 holds shard 0

	mustSubmit(t, e, "c", "c1")
	second := decideAsync(e, "c")
	waitQueued(t, e, 0, 1)
	// The size-triggered flush queues third — and Submit returns with the lane
	// still blocked: a submitter never runs a round.
	mustSubmit(t, e, "a", "a2")
	flushed := mustSubmit(t, e, "a", "a3")
	waitQueued(t, e, 0, 2)

	// The other lane is untouched by all that: its round starts at once, on
	// its caller, while shard 0 is still held.
	mustSubmit(t, e, "b", "b1")
	other := decideAsync(e, "b")
	if got := <-x.entered; got != "b" {
		t.Fatalf("round of domain %q entered, want b", got)
	}
	release()

	for _, ch := range []<-chan roundResult{first, second, other} {
		if res := <-ch; res.err != nil {
			t.Fatal(res.err)
		}
	}
	if out := waitOutcome(t, flushed); out.Round != 1 {
		t.Fatalf("flushed batch decided in round %d, want 1", out.Round)
	}

	var shard0 []laneCall
	for _, c := range x.recorded() {
		if c.domain != "b" {
			shard0 = append(shard0, c)
		}
	}
	want := []laneCall{{"a", 0, "a1", true}, {"c", 0, "c1", false}, {"a", 1, "a1,a2,a3", false}}
	if !reflect.DeepEqual(shard0, want) {
		t.Fatalf("shard 0 ran %+v, want %+v", shard0, want)
	}
	if got := x.maxPerShard.Load(); got != 1 {
		t.Fatalf("%d rounds of one shard in flight at once", got)
	}
	if got := x.maxInFlight.Load(); got != 2 {
		t.Fatalf("%d rounds in flight at the peak, want 2 (one a shard)", got)
	}
}

func TestStopWaitsForInlineRound(t *testing.T) {
	e, x := newLaneEngine(t, Config{}, "a")
	tk := mustSubmit(t, e, "a", "s1")
	release := x.block()
	round := decideAsync(e, "a")
	<-x.entered

	stopped := make(chan struct{})
	go func() { e.Stop(); close(stopped) }()
	select {
	case <-stopped:
		t.Fatal("Stop returned with an inline round still solving")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	<-stopped
	if out, ok := tk.Outcome(); !ok || !out.Admitted {
		t.Fatalf("ticket after Stop: %+v ok=%v err=%v, want resolved and admitted", out, ok, tk.Err())
	}
	if res := <-round; res.err != nil || res.r.Seq != 0 {
		t.Fatalf("inline round across Stop: %+v", res)
	}
	if _, err := e.DecideRound("a"); !errors.Is(err, ErrStopped) {
		t.Fatalf("DecideRound after Stop: %v, want ErrStopped", err)
	}
}

// seqLog is a RoundLog double that records the seq of every AppendRound and
// fails SyncRound while told to.
type seqLog struct {
	mu      sync.Mutex
	seqs    []uint64
	syncErr error
}

func (l *seqLog) AppendRound(_ string, seq uint64, _ []Request) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seqs = append(l.seqs, seq)
	return nil
}
func (l *seqLog) AppendForecasts(string, []ForecastUpdate) error { return nil }
func (l *seqLog) AppendAdvance(string) error                     { return nil }
func (l *seqLog) AppendTopology(string, []topology.Event) error  { return nil }
func (l *seqLog) SyncRound() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncErr
}
func (l *seqLog) failSync(err error) {
	l.mu.Lock()
	l.syncErr = err
	l.mu.Unlock()
}

type failingExec struct{ err error }

func (x failingExec) SolveRound(string, uint64, []topology.Event, []core.TenantSpec) (*core.Decision, error) {
	return nil, x.err
}

// TestDeclinedRoundSolvesOnDomainSolver: an executor that declines a round
// with ErrNoWorker, bare or wrapped, leaves it to the domain's own solver,
// and the round decides exactly what an executor-free engine decides. Any
// other executor error is final: the round fails and nothing solves it
// locally — the rule that keeps a fenced leader from deciding.
func TestDeclinedRoundSolvesOnDomainSolver(t *testing.T) {
	round := func(exec Executor) (*Round, error) {
		t.Helper()
		e := newTestEngine(t, Config{}, DomainConfig{Algorithm: "direct", Executor: exec})
		for _, n := range []string{"s1", "s2", "s3", "s4"} {
			mustSubmit(t, e, "", n)
		}
		return e.DecideRound("")
	}
	want, err := round(nil)
	if err != nil || len(want.Admitted) == 0 {
		t.Fatalf("executor-free round: %+v, %v", want, err)
	}
	wrapped := fmt.Errorf("cluster: domain %q: %w", DefaultDomain, ErrNoWorker)
	for _, decline := range []error{ErrNoWorker, wrapped} {
		got, err := round(failingExec{decline})
		if err != nil {
			t.Fatalf("round declined with %q: %v", decline, err)
		}
		if !reflect.DeepEqual(got.Decision, want.Decision) || !reflect.DeepEqual(got.Admitted, want.Admitted) {
			t.Fatalf("round declined with %q decided\n %+v\nan executor-free engine decided\n %+v", decline, got, want)
		}
	}
	fenced := errors.New("fenced")
	if r, err := round(failingExec{fenced}); !errors.Is(err, fenced) || r.Decision != nil || len(r.Admitted) != 0 {
		t.Fatalf("round failed by its executor: %+v, %v; want the executor's error and no decision", r, err)
	}
}

// TestFailedLogDoesNotAdvanceRoundClock: a round the log refused decided
// nothing and acked nobody, so it must not consume its sequence number —
// replay would otherwise skip a seq the log never made durable, or find log
// and snapshot diverged. A solver error is the opposite case: the record is
// durable and replays to the same error, so the clock does advance
// (ReplayRound's contract).
func TestFailedLogDoesNotAdvanceRoundClock(t *testing.T) {
	log := &seqLog{}
	e := newTestEngine(t, Config{Log: log}, DomainConfig{Algorithm: "direct"})
	rounds := func() uint64 {
		t.Helper()
		st, err := e.ExportDomain("")
		if err != nil {
			t.Fatal(err)
		}
		return st.Rounds
	}

	diskGone := errors.New("disk gone")
	log.failSync(diskGone)
	tk := mustSubmit(t, e, "", "s1")
	r, err := e.DecideRound("")
	if !errors.Is(err, diskGone) || r == nil || r.Err == nil || r.Seq != 0 {
		t.Fatalf("round on a failing log: %+v, %v", r, err)
	}
	if _, werr := tk.Wait(context.Background()); !errors.Is(werr, diskGone) {
		t.Fatalf("ticket of the refused round: %v, want the log error", werr)
	}
	if got := rounds(); got != 0 {
		t.Fatalf("round clock at %d after a refused round, want 0", got)
	}

	// The log recovers: the next round takes the seq the failed one left.
	log.failSync(nil)
	mustSubmit(t, e, "", "s1")
	if r, err = e.DecideRound(""); err != nil || r.Seq != 0 || len(r.Admitted) != 1 {
		t.Fatalf("round after the log recovered: %+v, %v", r, err)
	}
	if got := rounds(); got != 1 {
		t.Fatalf("round clock at %d after one logged round, want 1", got)
	}

	// A solver error on a logged round advances the clock.
	boom := errors.New("solver boom")
	if err := e.SetExecutor("", failingExec{boom}); err != nil {
		t.Fatal(err)
	}
	if r, err = e.DecideRound(""); !errors.Is(err, boom) || r.Seq != 1 {
		t.Fatalf("round with a failing solver: %+v, %v", r, err)
	}
	if got := rounds(); got != 2 {
		t.Fatalf("round clock at %d after a solver error, want 2", got)
	}
	if err := e.SetExecutor("", nil); err != nil {
		t.Fatal(err)
	}
	if r, err = e.DecideRound(""); err != nil || r.Seq != 2 {
		t.Fatalf("round after the solver error: %+v, %v", r, err)
	}
	if want := []uint64{0, 0, 1, 2}; !reflect.DeepEqual(log.seqs, want) {
		t.Fatalf("logged seqs %v, want %v", log.seqs, want)
	}
}
