package ctrlplane

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"repro/internal/admission"
	"repro/internal/dataplane"
	"repro/internal/monitor"
	"repro/internal/topology"
)

// The REST registry is an abstraction function of the engine's state
// (Derrick, North & Simons: the listing is read from the concrete state,
// never kept beside it). registryView checks that after every RunEpoch, on
// any orchestrator — serving from the start, restarted, promoted, or one
// whose epoch document a controller refused:
//
//   - the active rows of GET /slices are CommittedDetail: names in
//     admission order, CU, reservation and remaining lifetime;
//   - the expired rows are the report's Expired, each a slice the engine
//     held before the epoch or admitted in it and holds no longer;
//   - the rejected rows are the report's Rejected in registration order,
//     each a request of this epoch the engine does not hold;
//   - the pending rows are the registrations whose ticket is unresolved,
//     in registration order;
//
// in that order, with every name offered listed once and nothing else.
type registryView struct {
	offered []string // registered and not yet decided, in registration order
	seen    map[string]int
}

func (v *registryView) register(t *testing.T, o *Orchestrator, req SliceRequest) {
	t.Helper()
	if err := o.Register(req); err != nil {
		t.Fatalf("register %s: %v", req.Name, err)
	}
	v.offered = append(v.offered, req.Name)
}

// epoch runs one RunEpoch on o, checks the listing before and after it and
// returns what RunEpoch returned. Before it, every registration since the
// last epoch is listed pending, in registration order.
func (v *registryView) epoch(t *testing.T, o *Orchestrator) (*EpochReport, error) {
	t.Helper()
	var listed []SliceStatus
	if err := json.Unmarshal([]byte(getBytes(t, o, "/slices")), &listed); err != nil {
		t.Fatal(err)
	}
	var pending []string
	for _, st := range listed {
		if st.State == "pending" {
			pending = append(pending, st.Name)
		}
	}
	if !slices.Equal(pending, v.offered) {
		t.Fatalf("before the epoch the pending rows are %v, the registrations %v", pending, v.offered)
	}
	before, err := o.eng.CommittedDetail(admission.DefaultDomain)
	if err != nil {
		t.Fatal(err)
	}
	rep, runErr := o.RunEpoch()
	v.check(t, o, before, rep)
	return rep, runErr
}

// check holds o's listing to the engine's state; before is CommittedDetail
// ahead of the epoch, rep its report (nil when RunEpoch failed or none ran).
func (v *registryView) check(t *testing.T, o *Orchestrator, before []admission.CommittedSlice, rep *EpochReport) {
	t.Helper()
	body := getBytes(t, o, "/slices")
	var listed []SliceStatus
	if err := json.Unmarshal([]byte(body), &listed); err != nil {
		t.Fatal(err)
	}
	after, err := o.eng.CommittedDetail(admission.DefaultDomain)
	if err != nil {
		t.Fatal(err)
	}
	if v.seen == nil {
		v.seen = map[string]int{}
	}
	held := map[string]bool{}
	for _, m := range before {
		held[m.Name] = true
	}
	offered := map[string]bool{}
	for _, name := range v.offered {
		offered[name] = true
	}

	rank := map[string]int{"active": 0, "rejected": 1, "expired": 2, "pending": 3}
	byState := map[string][]string{}
	last := 0
	for i, st := range listed {
		r, ok := rank[st.State]
		if !ok || r < last {
			t.Fatalf("row %d %+v out of order: want active, rejected, expired, pending\n%s", i, st, body)
		}
		last = r
		byState[st.State] = append(byState[st.State], st.Name)
		switch st.State {
		case "active":
			if i >= len(after) {
				t.Fatalf("active row %+v beyond the engine's %d committed slices", st, len(after))
			}
			m := after[i]
			want := SliceStatus{Name: m.Name, Type: m.SLA.Type.String(), State: "active", CU: m.CU, Reserved: m.Reserved, Remaining: m.Remaining}
			if !reflect.DeepEqual(st, want) {
				t.Fatalf("active row %d is %+v, the engine holds %+v", i, st, want)
			}
		case "expired":
			if !held[st.Name] && !offered[st.Name] || st.Remaining != 0 {
				t.Fatalf("expired row %+v: neither held before the epoch nor offered in it, or time left", st)
			}
		case "rejected":
			if !offered[st.Name] || held[st.Name] {
				t.Fatalf("rejected row %+v is not a request of this epoch", st)
			}
		case "pending":
			if !offered[st.Name] || !unresolved(o, st.Name) {
				t.Fatalf("pending row %+v is not an undecided registration", st)
			}
		}
	}
	if len(byState["active"]) != len(after) {
		t.Fatalf("%d active rows, the engine holds %d slices\n%s", len(byState["active"]), len(after), body)
	}
	listedNames := map[string]bool{}
	for _, st := range listed {
		if listedNames[st.Name] {
			t.Fatalf("%s listed twice\n%s", st.Name, body)
		}
		listedNames[st.Name] = true
		if !held[st.Name] && !offered[st.Name] && st.State != "active" {
			t.Fatalf("%s listed as %s, but it was neither held nor offered", st.Name, st.State)
		}
	}
	committed := map[string]bool{}
	for _, m := range after {
		committed[m.Name] = true
	}
	for name := range held {
		if !committed[name] && !slices.Contains(byState["expired"], name) {
			t.Fatalf("%s left the engine but is not listed expired\n%s", name, body)
		}
	}
	for _, name := range v.offered {
		if !listedNames[name] {
			t.Fatalf("offered %s is not listed\n%s", name, body)
		}
	}
	if rep != nil {
		rejected := byState["rejected"]
		if len(rejected) != len(rep.Rejected) || !slices.Equal(rejected, inOrder(v.offered, rep.Rejected)) || !slices.Equal(byState["expired"], rep.Expired) {
			t.Fatalf("rejected rows %v and expired rows %v, the report says %v and %v", byState["rejected"], byState["expired"], rep.Rejected, rep.Expired)
		}
		if b, _ := json.Marshal(rep.Slices); string(b)+"\n" != body {
			t.Fatalf("the report lists\n%s\nGET /slices\n%s", b, body)
		}
	}
	if !slices.Equal(byState["pending"], inOrder(v.offered, byState["pending"])) {
		t.Fatalf("pending rows %v out of registration order %v", byState["pending"], v.offered)
	}
	for state, names := range byState {
		v.seen[state] += len(names)
	}
	v.offered = byState["pending"]
}

// unresolved reports whether o holds name as a registration whose ticket
// has no outcome yet.
func unresolved(o *Orchestrator, name string) bool {
	for _, r := range o.pending {
		if r.name == name {
			_, ok := r.ticket.Outcome()
			return !ok
		}
	}
	return false
}

// inOrder keeps the names of order that are in keep, in order's order.
func inOrder(order, keep []string) []string {
	var out []string
	for _, n := range order {
		if slices.Contains(keep, n) {
			out = append(out, n)
		}
	}
	return out
}

// viewEpoch plays epoch e of the property script on o: the rest-stack
// arrival cycle, a prefilter rejection every fifth epoch, a request the
// testbed cannot carry every fourth, a one-epoch slice every seventh; then
// the epoch, checked, and its load.
func viewEpoch(t *testing.T, o *Orchestrator, store *monitor.Store, v *registryView, tn *tenants, rng *rand.Rand, e int) {
	t.Helper()
	reqs := tn.cycle(rng, e, restTypes)
	if e%5 == 2 {
		reqs[0].DelayMs = 1e-3
	}
	if e%4 == 1 {
		reqs = append(reqs, SliceRequest{Name: fmt.Sprintf("big%d", e), Type: "eMBB", RateMbps: 400, DurationEpochs: 3, PenaltyFactor: 1})
	}
	if e%7 == 3 {
		reqs = append(reqs, SliceRequest{Name: fmt.Sprintf("one%d", e), Type: "mMTC", RateMbps: 1, DurationEpochs: 1, PenaltyFactor: 1})
		tn.rates[reqs[len(reqs)-1].Name] = 1
	}
	// Offer each epoch's names out of name order: the listing must not
	// depend on it.
	for i := len(reqs) - 1; i >= 0; i-- {
		v.register(t, o, reqs[i])
	}
	rep, err := v.epoch(t, o)
	if err != nil {
		t.Fatalf("epoch %d: %v", e, err)
	}
	tn.absorb(rep)
	tn.play(e, 0.8, 0.4, &southStack{store: store})
}

// requireExercised fails a script that never produced each kind of row.
func (v *registryView) requireExercised(t *testing.T) {
	t.Helper()
	for _, state := range []string{"active", "rejected", "expired"} {
		if v.seen[state] == 0 {
			t.Fatalf("the script never listed a %s slice: %v", state, v.seen)
		}
	}
}

// TestRegistryIsAViewOfTheEngine runs registryView's check after every
// epoch of a script with admissions, rescaling, expiries, one-epoch slices,
// solver and prefilter rejections: on an orchestrator that serves it all,
// on one restarted from its data dir halfway, and on a standby promoted
// halfway. A restarted or promoted orchestrator is checked once more before
// its first epoch: it lists the committed slices and nothing else.
func TestRegistryIsAViewOfTheEngine(t *testing.T) {
	const epochs = 40
	t.Run("live", func(t *testing.T) {
		dp := dataplane.NewEmulator(topology.Testbed())
		s := newSouthStack(t, OrchestratorConfig{Algorithm: "benders"},
			NewRANController(dp).Handler(), NewTransportController(dp).Handler(), NewCloudController(dp).Handler(), nil)
		rng, tn, v := rand.New(rand.NewSource(5)), newTenants(), &registryView{}
		for e := 0; e < epochs; e++ {
			viewEpoch(t, s.orch, s.store, v, tn, rng, e)
		}
		v.requireExercised(t)
	})

	for _, takeover := range []string{"restart", "promotion"} {
		t.Run(takeover, func(t *testing.T) {
			ran, tn, cloud := newSouthbound(t)
			cfg := OrchestratorConfig{
				Net: topology.Testbed(), Algorithm: "benders", Store: monitor.NewStore(0),
				RANAddr: ran, TransportAddr: tn, CloudAddr: cloud,
				DataDir: t.TempDir(), SnapshotEvery: 4,
			}
			leader, err := NewOrchestrator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var sb *Standby
			if takeover == "promotion" {
				if sb, err = NewStandby(cfg); err != nil {
					t.Fatal(err)
				}
			}
			rng, tns, v := rand.New(rand.NewSource(5)), newTenants(), &registryView{}
			for e := 0; e < epochs/2; e++ {
				viewEpoch(t, leader, cfg.Store, v, tns, rng, e)
				if sb != nil {
					if _, err := sb.Poll(); err != nil {
						t.Fatal(err)
					}
				}
			}
			var next *Orchestrator
			if sb == nil {
				if err := leader.Close(); err != nil {
					t.Fatal(err)
				}
				next, err = NewOrchestrator(cfg)
			} else {
				leader.Abort()
				next, err = sb.Promote(nil, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { next.Close() }) //nolint:errcheck // engine teardown
			committed, err := next.eng.CommittedDetail(admission.DefaultDomain)
			if err != nil {
				t.Fatal(err)
			}
			v.offered = nil
			v.check(t, next, committed, nil)
			for e := epochs / 2; e < epochs; e++ {
				viewEpoch(t, next, cfg.Store, v, tns, rng, e)
			}
			v.requireExercised(t)
		})
	}
}

// TestRestartListsLikeLiveServing is the listing order across a restart:
// two slices offered out of name order, one epoch, a clean Close and a
// reopen of the data dir must leave GET /slices byte for byte as it was.
func TestRestartListsLikeLiveServing(t *testing.T) {
	ran, tn, cloud := newSouthbound(t)
	cfg := OrchestratorConfig{
		Net: topology.Testbed(), Algorithm: "benders", Store: monitor.NewStore(0),
		RANAddr: ran, TransportAddr: tn, CloudAddr: cloud,
		DataDir: t.TempDir(),
	}
	o, err := NewOrchestrator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"x2", "x1"} {
		if err := o.Register(SliceRequest{Name: name, Type: "mMTC", RateMbps: 2, DurationEpochs: 5, PenaltyFactor: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := o.RunEpoch(); err != nil || len(rep.Accepted) != 2 {
		t.Fatalf("epoch 0: %+v, %v; want both admitted", rep, err)
	}
	live := getBytes(t, o, "/slices")
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	o, err = NewOrchestrator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close() //nolint:errcheck // engine teardown
	if got := getBytes(t, o, "/slices"); got != live {
		t.Fatalf("GET /slices after the restart:\n%s\nbefore it:\n%s", got, live)
	}
}

// TestGetSlicesAllocs pins what one GET /slices costs in allocations with
// ten live slices: 14, 18 under -race. The rows share the reservations of
// one CommittedDetail copy, which cuts them from one array, so no row
// allocates on its own; a copy per row made it 21 (25 under -race).
func TestGetSlicesAllocs(t *testing.T) {
	dp := dataplane.NewEmulator(topology.Testbed())
	s := newSouthStack(t, OrchestratorConfig{Algorithm: "benders"},
		NewRANController(dp).Handler(), NewTransportController(dp).Handler(), NewCloudController(dp).Handler(), nil)
	for i := 0; i < 10; i++ {
		if err := s.orch.Register(SliceRequest{Name: fmt.Sprintf("m%d", i), Type: "mMTC", RateMbps: 1, DurationEpochs: 5, PenaltyFactor: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := s.orch.RunEpoch(); err != nil || len(rep.Accepted) != 10 {
		t.Fatalf("epoch 0: %+v, %v; want all ten admitted", rep, err)
	}
	h, req := s.orch.Handler(), httptest.NewRequest(http.MethodGet, "/slices", nil)
	allocs := testing.AllocsPerRun(100, func() { h.ServeHTTP(httptest.NewRecorder(), req) })
	t.Logf("GET /slices with 10 live slices: %v allocations", allocs)
	if allocs > 20 {
		t.Fatalf("GET /slices allocates %v times with 10 live slices, want at most 20", allocs)
	}
}
