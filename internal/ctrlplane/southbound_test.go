package ctrlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/monitor"
	"repro/internal/topology"
)

// The southbound tests drive an orchestrator by direct calls (Register,
// RunEpoch) against controllers on real loopback listeners, so what they
// count — connections, requests, documents — is what a deployment pays.

// southStack is an orchestrator over three controller listeners.
type southStack struct {
	store *monitor.Store
	orch  *Orchestrator
}

// newSouthStack serves the three handlers and builds an orchestrator on
// them. wrap, when set, instruments each listener before it starts.
func newSouthStack(t *testing.T, cfg OrchestratorConfig, ran, tn, cloud http.Handler, wrap func(i int, srv *httptest.Server)) *southStack {
	t.Helper()
	addrs := make([]string, 3)
	for i, h := range []http.Handler{ran, tn, cloud} {
		srv := httptest.NewUnstartedServer(h)
		if wrap != nil {
			wrap(i, srv)
		}
		srv.Start()
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	cfg.Net, cfg.Store = topology.Testbed(), monitor.NewStore(0)
	cfg.RANAddr, cfg.TransportAddr, cfg.CloudAddr = addrs[0], addrs[1], addrs[2]
	orch, err := NewOrchestrator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { orch.Close() }) //nolint:errcheck // engine worker teardown
	return &southStack{store: cfg.Store, orch: orch}
}

// tenants is the test's side of the world: the rate of every slice offered
// and which of them are live.
type tenants struct {
	rates, live map[string]float64
}

func newTenants() *tenants { return &tenants{rates: map[string]float64{}, live: map[string]float64{}} }

// absorb updates the live set from an epoch report.
func (tn *tenants) absorb(rep *EpochReport) {
	for _, name := range rep.Accepted {
		tn.live[name] = tn.rates[name]
	}
	for _, name := range rep.Expired {
		delete(tn.live, name)
	}
}

// play feeds the stores one epoch of deterministic load for the live
// slices: level ± swing of each slice's rate.
func (tn *tenants) play(epoch int, level, swing float64, stacks ...*southStack) {
	for name, rate := range tn.live {
		for b := 0; b < 2; b++ {
			for theta := 0; theta < 6; theta++ {
				sm := monitor.Sample{Slice: name, Metric: monitor.LoadMetric, Element: monitor.BSElement(b),
					Epoch: epoch, Theta: theta, Value: rate * (level + swing*loadWave(name, b, epoch, theta))}
				for _, s := range stacks {
					s.store.Add(sm)
				}
			}
		}
	}
}

// sliceType is a slice type offered at a rate.
type sliceType struct {
	name string
	mbps float64
}

// restTypes is the rest-stack benchmark's mix: the three Table 1 types at a
// fifth of their rates, where the testbed never nears a capacity.
var restTypes = []sliceType{{"eMBB", 10}, {"uRLLC", 4}, {"mMTC", 2}}

// offer draws one request as the rest-stack benchmark does: a type, then a
// lifetime of 2–4 epochs.
func (tn *tenants) offer(rng *rand.Rand, name string, types []sliceType) SliceRequest {
	ty := types[rng.Intn(len(types))]
	tn.rates[name] = ty.mbps
	return SliceRequest{Name: name, Type: ty.name, RateMbps: ty.mbps, DurationEpochs: 2 + rng.Intn(3), PenaltyFactor: 1}
}

// cycle is the benchmark's arrival pattern: 1-2-3-2 requests per epoch,
// named s<epoch>-<k>.
func (tn *tenants) cycle(rng *rand.Rand, e int, types []sliceType) []SliceRequest {
	var reqs []SliceRequest
	for k, n := 0, []int{1, 2, 3, 2}[e%4]; k < n; k++ {
		reqs = append(reqs, tn.offer(rng, fmt.Sprintf("s%d-%d", e, k), types))
	}
	return reqs
}

// ---- refinement oracle ----------------------------------------------------

// perSliceOracle is the southbound as it was before epoch documents, kept
// as the reference the batch path must refine: for each slice in turn,
// program RAN, then transport, then cloud, stopping at the first refusal;
// tear a slice down domain by domain. It stands behind three listeners that
// speak the document protocol and replays each round trip's three
// documents, once all have arrived, as that per-slice sequence.
type perSliceOracle struct {
	dp *dataplane.Emulator

	mu  sync.Mutex
	cur *oracleTrip
}

type oracleTrip struct {
	ran     EpochDoc[RadioConfig]
	tn      EpochDoc[FlowConfig]
	cloud   EpochDoc[StackConfig]
	arrived int
	done    chan struct{}
	err     error
}

// program is the old Orchestrator.program against the old per-slice
// controller handlers, minus the HTTP hop between them.
func (o *perSliceOracle) program(rc RadioConfig, fc FlowConfig, sc StackConfig) error {
	if rc.Slice != fc.Slice || rc.Slice != sc.Slice {
		return fmt.Errorf("documents disagree at one index: %q, %q, %q", rc.Slice, fc.Slice, sc.Slice)
	}
	// POST /shares
	if len(rc.ShareMHz) != len(o.dp.Radios) {
		return fmt.Errorf("%d shares for %d BSs", len(rc.ShareMHz), len(o.dp.Radios))
	}
	applied := make([]int, 0, len(rc.ShareMHz))
	for b, mhz := range rc.ShareMHz {
		if err := o.dp.Radios[b].SetShare(rc.Slice, mhz); err != nil {
			for _, bb := range applied {
				o.dp.Radios[bb].SetShare(rc.Slice, 0) //nolint:errcheck // rollback
			}
			return err
		}
		applied = append(applied, b)
	}
	// POST /flows
	rules := make([]dataplane.FlowRule, len(fc.Rules))
	for i, fs := range fc.Rules {
		rules[i] = dataplane.FlowRule{Slice: fc.Slice, LinkIDs: fs.LinkIDs, RateMbps: fs.RateMbps}
	}
	if err := o.dp.Fabric.Install(fc.Slice, rules); err != nil {
		return err
	}
	// POST /stacks
	if sc.CU < 0 || sc.CU >= len(o.dp.CUs) {
		return fmt.Errorf("no CU %d", sc.CU)
	}
	for i, cu := range o.dp.CUs {
		if i != sc.CU {
			cu.Destroy(sc.Slice)
		}
	}
	return o.dp.CUs[sc.CU].Deploy(dataplane.Stack{Slice: sc.Slice, PinnedCores: sc.BaselineCPU + sc.CPUPerMbps*sc.TotalMbps})
}

func (o *perSliceOracle) replay(tr *oracleTrip) error {
	if len(tr.ran.Set) != len(tr.tn.Set) || len(tr.ran.Set) != len(tr.cloud.Set) ||
		!reflect.DeepEqual(tr.ran.Remove, tr.tn.Remove) || !reflect.DeepEqual(tr.ran.Remove, tr.cloud.Remove) {
		return fmt.Errorf("the three documents of one round trip differ in shape")
	}
	for i := range tr.ran.Set {
		if err := o.program(tr.ran.Set[i], tr.tn.Set[i], tr.cloud.Set[i]); err != nil {
			return err
		}
	}
	// The old Orchestrator.teardown: DELETE /shares/{slice}, /flows/{slice},
	// /stacks/{slice}, in that order.
	for _, name := range tr.ran.Remove {
		for _, r := range o.dp.Radios {
			r.SetShare(name, 0) //nolint:errcheck // removal never fails
		}
		o.dp.Fabric.Remove(name)
		for _, c := range o.dp.CUs {
			c.Destroy(name)
		}
	}
	return nil
}

// handler is one controller's listener: it files its document into the
// current round trip and answers once the last of the three has replayed it.
func (o *perSliceOracle) handler(file func(*oracleTrip, http.ResponseWriter, *http.Request) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o.mu.Lock()
		if o.cur == nil {
			o.cur = &oracleTrip{done: make(chan struct{})}
		}
		tr := o.cur
		if err := file(tr, w, r); err != nil {
			o.mu.Unlock()
			httpBodyError(w, err)
			return
		}
		if tr.arrived++; tr.arrived == 3 {
			o.cur = nil
			tr.err = o.replay(tr)
			close(tr.done)
		}
		o.mu.Unlock()
		<-tr.done
		if tr.err != nil {
			httpError(w, http.StatusConflict, tr.err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "replayed"})
	})
}

// TestEpochDocumentsRefinePerSliceProgramming is the refinement check for
// the batch southbound (Derrick, North & Simons: every trace of the concrete
// system must be a trace of the spec). Two stacks take the same 200-epoch
// script — mixed types, rescaling load, a BS degradation and its recovery,
// epochs with several expiries, fast rejections. One programs the real
// controllers with concurrent epoch documents; the other's controllers hand
// the same documents to the per-slice oracle. After every epoch both
// emulated data planes must hold the same shares, rules and pins for every
// slice ever offered, and both orchestrators must have issued the same
// report, Accepted/Rejected/Expired order included.
func TestEpochDocumentsRefinePerSliceProgramming(t *testing.T) {
	dpDoc := dataplane.NewEmulator(topology.Testbed())
	doc := newSouthStack(t, OrchestratorConfig{Algorithm: "benders"},
		NewRANController(dpDoc).Handler(), NewTransportController(dpDoc).Handler(), NewCloudController(dpDoc).Handler(), nil)

	oracle := &perSliceOracle{dp: dataplane.NewEmulator(topology.Testbed())}
	ref := newSouthStack(t, OrchestratorConfig{Algorithm: "benders"},
		oracle.handler(func(tr *oracleTrip, w http.ResponseWriter, r *http.Request) error { return decodeBody(w, r, &tr.ran) }),
		oracle.handler(func(tr *oracleTrip, w http.ResponseWriter, r *http.Request) error { return decodeBody(w, r, &tr.tn) }),
		oracle.handler(func(tr *oracleTrip, w http.ResponseWriter, r *http.Request) error { return decodeBody(w, r, &tr.cloud) }),
		nil)

	postTopology := func(o *Orchestrator, ev topology.Event) {
		t.Helper()
		b, _ := json.Marshal([]topology.Event{ev})
		rec := httptest.NewRecorder()
		o.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/topology", bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /topology: %d (%s)", rec.Code, rec.Body.String())
		}
	}

	rng := rand.New(rand.NewSource(17))
	tn := newTenants()
	var offered []string
	var multiExpiry, multiSet, rejected int
	for e := 0; e < 200; e++ {
		switch e {
		case 60:
			postTopology(doc.orch, topology.BSDegrade(e, 0, 0.8))
			postTopology(ref.orch, topology.BSDegrade(e, 0, 0.8))
		case 130:
			postTopology(doc.orch, topology.BSRecover(e, 0))
			postTopology(ref.orch, topology.BSRecover(e, 0))
		}
		for k, req := range tn.cycle(rng, e, restTypes) {
			if e%9 == 4 && k == 0 {
				req.DelayMs = 1e-3 // no CU is that close: the prefilter rejects it
			}
			offered = append(offered, req.Name)
			for _, s := range []*southStack{doc, ref} {
				if err := s.orch.Register(req); err != nil {
					t.Fatalf("epoch %d: register %s: %v", e, req.Name, err)
				}
			}
		}
		repDoc, err := doc.orch.RunEpoch()
		if err != nil {
			t.Fatalf("epoch %d (documents): %v", e, err)
		}
		repRef, err := ref.orch.RunEpoch()
		if err != nil {
			t.Fatalf("epoch %d (per-slice oracle): %v", e, err)
		}
		got, _ := json.Marshal(repDoc)
		want, _ := json.Marshal(repRef)
		if !bytes.Equal(got, want) {
			t.Fatalf("epoch %d: reports differ\n documents: %s\n per-slice: %s", e, got, want)
		}
		for _, name := range offered {
			for b := range dpDoc.Radios {
				if g, w := dpDoc.Radios[b].Share(name), oracle.dp.Radios[b].Share(name); g != w {
					t.Fatalf("epoch %d: %s share at BS %d: documents %v, per-slice %v", e, name, b, g, w)
				}
			}
			if g, w := dpDoc.Fabric.Rules(name), oracle.dp.Fabric.Rules(name); !reflect.DeepEqual(g, w) {
				t.Fatalf("epoch %d: %s rules: documents %+v, per-slice %+v", e, name, g, w)
			}
			for c := range dpDoc.CUs {
				if g, w := dpDoc.CUs[c].Pinned(name), oracle.dp.CUs[c].Pinned(name); g != w {
					t.Fatalf("epoch %d: %s pin on CU %d: documents %v, per-slice %v", e, name, c, g, w)
				}
			}
		}

		if len(tn.live)+len(repDoc.Accepted) >= 2 {
			multiSet++
		}
		if len(repDoc.Expired) >= 2 {
			multiExpiry++
		}
		rejected += len(repDoc.Rejected)
		tn.absorb(repDoc)
		tn.play(e, 0.8, 0.4, doc, ref)
	}
	// The script must exercise what the check is about.
	if multiExpiry == 0 || multiSet < 100 || rejected == 0 {
		t.Fatalf("script too tame: %d epochs with ≥2 expiries, %d with ≥2 programmed slices, %d rejections", multiExpiry, multiSet, rejected)
	}
}

// ---- counting the southbound ----------------------------------------------

// countedListeners instruments the three controller listeners: connections
// opened (ConnState StateNew) and requests served, per controller.
type countedListeners struct {
	conns, calls [3]atomic.Int64
}

func (c *countedListeners) wrap(i int, srv *httptest.Server) {
	inner := srv.Config.Handler
	srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.calls[i].Add(1)
		inner.ServeHTTP(w, r)
	})
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			c.conns[i].Add(1)
		}
	}
}

// TestSouthboundConnectionsAndCalls counts the thing the document southbound
// fixes instead of timing it. Over 100 epochs of arrivals and expiries each
// controller sees at most two requests per epoch (one when nothing expired)
// and at most two connections in total (the transport may dial a second
// while the first is on its way back to the idle pool). A controller that
// refuses with a body must not cost the next call a connection either: the
// helper drains error answers too.
func TestSouthboundConnectionsAndCalls(t *testing.T) {
	controllerNames := []string{"RAN", "transport", "cloud"}

	t.Run("100 epochs", func(t *testing.T) {
		dp := dataplane.NewEmulator(topology.Testbed())
		var cl countedListeners
		s := newSouthStack(t, OrchestratorConfig{Algorithm: "benders"},
			NewRANController(dp).Handler(), NewTransportController(dp).Handler(), NewCloudController(dp).Handler(), cl.wrap)

		rng := rand.New(rand.NewSource(3))
		tn := newTenants()
		expiries := 0
		for e := 0; e < 100; e++ {
			for _, req := range tn.cycle(rng, e, restTypes) {
				if err := s.orch.Register(req); err != nil {
					t.Fatal(err)
				}
			}
			var before [3]int64
			for i := range before {
				before[i] = cl.calls[i].Load()
			}
			rep, err := s.orch.RunEpoch()
			if err != nil {
				t.Fatalf("epoch %d: %v", e, err)
			}
			want := int64(1)
			if len(rep.Expired) > 0 {
				want = 2
				expiries++
			}
			for i, name := range controllerNames {
				if got := cl.calls[i].Load() - before[i]; got > want {
					t.Fatalf("epoch %d (%d expired): %d requests to the %s controller, want at most %d", e, len(rep.Expired), got, name, want)
				}
			}
			tn.absorb(rep)
			tn.play(e, 0.8, 0.4, s)
		}
		if expiries < 50 {
			t.Fatalf("only %d epochs had an expiry; the script must exercise both round trips", expiries)
		}
		for i, name := range controllerNames {
			if got := cl.conns[i].Load(); got < 1 || got > 2 {
				t.Errorf("%s controller saw %d connections over 100 epochs (%d requests), want 1 or 2", name, got, cl.calls[i].Load())
			}
		}
	})

	t.Run("refusals with a body", func(t *testing.T) {
		refuse := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			httpError(w, http.StatusConflict, errors.New("pool exhausted "+strings.Repeat("x", 8<<10)))
		})
		var cl countedListeners
		s := newSouthStack(t, OrchestratorConfig{Algorithm: "direct"}, refuse, refuse, refuse, cl.wrap)
		for n := 0; n < 20; n++ {
			err := s.orch.push(&southbound{ran: EpochDoc[RadioConfig]{Remove: []string{"ghost"}}})
			var refused *statusError
			if !errors.As(err, &refused) || refused.code != http.StatusConflict || !strings.HasPrefix(refused.msg, "pool exhausted") {
				t.Fatalf("push %d: %v, want the controller's 409 and its text", n, err)
			}
		}
		for i, name := range controllerNames {
			if calls, conns := cl.calls[i].Load(), cl.conns[i].Load(); calls != 20 || conns > 2 {
				t.Errorf("%s controller: %d refused requests over %d connections, want 20 over at most 2", name, calls, conns)
			}
		}
	})
}

// TestRegistryBoundedOverEpochs pins the registry that forgets, over the
// REST surface: 500 epochs of 1–3 arrivals with 2–4-epoch lifetimes (plus a
// fast rejection every seventh epoch), names drawn from those the registry
// has released. After every epoch GET /slices lists exactly the live slices
// plus what terminated in that epoch; what terminated an epoch earlier is
// gone and its name is accepted again — while still listed, it is refused as
// a duplicate. The POST /epoch reply at epoch 500 is within 2× of epoch 20.
func TestRegistryBoundedOverEpochs(t *testing.T) {
	dp := dataplane.NewEmulator(topology.Testbed())
	s := newSouthStack(t, OrchestratorConfig{Algorithm: "benders"},
		NewRANController(dp).Handler(), NewTransportController(dp).Handler(), NewCloudController(dp).Handler(), nil)
	north := httptest.NewServer(s.orch.Handler())
	t.Cleanup(north.Close)
	client := &http.Client{}

	rng := rand.New(rand.NewSource(11))
	var free, lastTerminal []string // reusable names; what terminated in the previous epoch
	minted, reused := 0, 0
	tn := newTenants()
	replySize := map[int]int{}
	for e := 0; e < 500; e++ {
		// A name that terminated in the previous epoch is still listed, so
		// it is still taken.
		if len(lastTerminal) > 0 {
			err := call(client, http.MethodPost, north.URL+"/requests",
				BuildNSD(SliceRequest{Name: lastTerminal[0], Type: "mMTC", RateMbps: 2, DurationEpochs: 2}), nil)
			var refused *statusError
			if !errors.As(err, &refused) || refused.code != http.StatusConflict {
				t.Fatalf("epoch %d: re-offering %s one epoch after it terminated: %v, want 409", e, lastTerminal[0], err)
			}
		}
		for k, n := 0, 1+rng.Intn(3); k < n; k++ {
			var name string
			if len(free) > 0 {
				name, free = free[0], free[1:]
				reused++
			} else {
				name = fmt.Sprintf("n%d", minted)
				minted++
			}
			req := tn.offer(rng, name, restTypes)
			if e%7 == 3 && k == 0 {
				req.DelayMs = 1e-3 // fast-rejected
			}
			if err := call(client, http.MethodPost, north.URL+"/requests", BuildNSD(req), nil); err != nil {
				t.Fatalf("epoch %d: offering %s: %v", e, name, err)
			}
		}

		resp, err := client.Post(north.URL+"/epoch", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body) //nolint:errcheck // a short read fails the decode below
		resp.Body.Close()
		var rep EpochReport
		if err := json.Unmarshal(body.Bytes(), &rep); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("epoch %d: %s (%v): %s", e, resp.Status, err, body.String())
		}
		replySize[e+1] = body.Len()

		tn.absorb(&rep)
		terminal := map[string]string{}
		for _, name := range rep.Rejected {
			terminal[name] = "rejected"
		}
		for _, name := range rep.Expired {
			terminal[name] = "expired"
		}

		var listed []SliceStatus
		if err := call(client, http.MethodGet, north.URL+"/slices", nil, &listed); err != nil {
			t.Fatal(err)
		}
		if len(listed) != len(tn.live)+len(terminal) {
			t.Fatalf("epoch %d: GET /slices lists %d slices, want %d live + %d terminated this epoch", e, len(listed), len(tn.live), len(terminal))
		}
		for _, st := range listed {
			if want, ok := terminal[st.Name]; ok && st.State != want {
				t.Fatalf("epoch %d: %s listed as %q, want %q", e, st.Name, st.State, want)
			} else if !ok && (st.State != "active" || tn.live[st.Name] == 0) {
				t.Fatalf("epoch %d: %s listed as %q, but it is not live", e, st.Name, st.State)
			}
		}
		free = append(free, lastTerminal...)
		lastTerminal = lastTerminal[:0]
		lastTerminal = append(append(lastTerminal, rep.Rejected...), rep.Expired...)
		tn.play(e, 0.8, 0.4, s)
	}
	if reused < 500 {
		t.Fatalf("only %d of the offers reused a released name", reused)
	}
	if replySize[500] > 2*replySize[20] {
		t.Fatalf("POST /epoch reply grew with the age of the process: %d B at epoch 20, %d B at epoch 500", replySize[20], replySize[500])
	}
}

// ---- the deficit reproducer -----------------------------------------------

// deficitRecorder is a pass-through Executor that remembers each round's
// big-M deficits.
type deficitRecorder struct {
	inner *admission.LocalSolver
	last  *core.Decision
}

func (d *deficitRecorder) SolveRound(domain string, seq uint64, events []topology.Event, tenants []core.TenantSpec) (*core.Decision, error) {
	dec, err := d.inner.SolveRound(domain, seq, events, tenants)
	d.last = dec
	return dec, err
}

// TestDeficitDecisionIsRefusedByDataPlane documents, as today's behaviour,
// why rest-stack cannot run at the paper's Table 1 rates: the failure is not
// a transient overshoot between two programming steps but a decision that
// over-subscribes on purpose. When re-tracked reservations of committed
// slices (which constraint (13) keeps admitted) no longer fit, the solver
// pays the big-M deficit — and the emulated data plane, which knows nothing
// of leased capacity, refuses the end state. So at full rates the script
// below reaches an epoch whose Decision carries a radio deficit, and exactly
// that epoch's POST /epoch answers 500 naming the carrier; every epoch
// before it has no deficit and succeeds. Reordering or batching the
// programming cannot clear it. A fix (ROADMAP item 5) flips this test.
func TestDeficitDecisionIsRefusedByDataPlane(t *testing.T) {
	dc, err := admission.DomainConfig{Net: topology.Testbed(), Algorithm: "benders"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	solver, err := admission.NewLocalSolver(dc)
	if err != nil {
		t.Fatal(err)
	}
	recorder := &deficitRecorder{inner: solver}
	dp := dataplane.NewEmulator(topology.Testbed())
	s := newSouthStack(t, OrchestratorConfig{Algorithm: "benders", Executor: recorder},
		NewRANController(dp).Handler(), NewTransportController(dp).Handler(), NewCloudController(dp).Handler(), nil)
	north := httptest.NewServer(s.orch.Handler())
	t.Cleanup(north.Close)

	table1 := []sliceType{{"eMBB", 50}, {"uRLLC", 25}, {"mMTC", 10}}
	rng := rand.New(rand.NewSource(6))
	tn := newTenants()
	for e := 0; e < 40; e++ {
		for _, req := range tn.cycle(rng, e, table1) {
			if err := s.orch.Register(req); err != nil {
				t.Fatal(err)
			}
		}
		var rep EpochReport
		err := call(&http.Client{}, http.MethodPost, north.URL+"/epoch", nil, &rep)
		dec := recorder.last
		if dec == nil {
			t.Fatalf("epoch %d: no round was solved: %v", e, err)
		}
		if dec.DeficitRadio+dec.DeficitTransport+dec.DeficitCompute == 0 {
			if err != nil {
				t.Fatalf("epoch %d: no deficit in the decision, yet the epoch failed: %v", e, err)
			}
			tn.absorb(&rep)
			tn.play(e, 0.65, 0.3, s)
			continue
		}
		var refused *statusError
		if !errors.As(err, &refused) || refused.code != http.StatusInternalServerError {
			t.Fatalf("epoch %d: decision with deficits radio=%.3g transport=%.3g compute=%.3g was programmed: err=%v",
				e, dec.DeficitRadio, dec.DeficitTransport, dec.DeficitCompute, err)
		}
		if dec.DeficitRadio <= 0 || !strings.Contains(refused.msg, "radio shares") || !strings.Contains(refused.msg, "exceed carrier") {
			t.Fatalf("epoch %d: radio deficit %.3g MHz, refusal %q: want the RAN controller to name the carrier", e, dec.DeficitRadio, refused.msg)
		}
		t.Logf("epoch %d: decision leases %.2f MHz of radio deficit; data plane: %s", e, dec.DeficitRadio, refused.msg)
		return
	}
	t.Fatal("40 epochs at Table 1 rates without a deficit decision: the reproducer no longer reproduces")
}

// TestFailedProgrammingSettlesEachEpochOnce: a southbound refusal after the
// round committed must not leave the epoch half-stepped. Six epochs run
// with the RAN controller refusing the fourth epoch's document; the test
// feeds epoch e 2·(e+1) samples, so the slice's ledger line tells which
// epochs were settled — each of 0..4 exactly once is 30 samples over 5
// epochs, and settling epoch 2 again in place of epoch 4 reads 26. In the
// second row a one-epoch slice arrives just before the refused epoch: the
// engine accepts and expires it in that one step, so the registry must
// show it expired and the teardown must clear what the transport and cloud
// controllers did take.
func TestFailedProgrammingSettlesEachEpochOnce(t *testing.T) {
	for _, row := range []struct {
		name     string
		oneEpoch string // registered before epoch 3, for one epoch; "" for none
	}{
		{name: "active slice"},
		{name: "one-epoch slice accepted in the refused round", oneEpoch: "s1"},
	} {
		t.Run(row.name, func(t *testing.T) {
			dp := dataplane.NewEmulator(topology.Testbed())
			ran := NewRANController(dp).Handler()
			var calls atomic.Int32
			flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if calls.Add(1) == 4 {
					httpError(w, http.StatusInternalServerError, errors.New("injected RAN failure"))
					return
				}
				ran.ServeHTTP(w, r)
			})
			s := newSouthStack(t, OrchestratorConfig{}, flaky, NewTransportController(dp).Handler(), NewCloudController(dp).Handler(), nil)
			const duration = 20
			var v registryView // the listing is checked after every epoch, the refused one too
			v.register(t, s.orch, SliceRequest{Name: "u1", Type: "eMBB", RateMbps: 10, DurationEpochs: duration, PenaltyFactor: 1})
			for e := 0; e < 6; e++ {
				if e == 3 && row.oneEpoch != "" {
					v.register(t, s.orch, SliceRequest{Name: row.oneEpoch, Type: "eMBB", RateMbps: 10, DurationEpochs: 1, PenaltyFactor: 1})
				}
				_, err := v.epoch(t, s.orch)
				if (e == 3) != (err != nil) || (err != nil && !strings.Contains(err.Error(), "injected RAN failure")) {
					t.Fatalf("epoch %d: RunEpoch error %v, want the injected refusal exactly at epoch 3", e, err)
				}
				if e == 3 && row.oneEpoch != "" {
					st := s.orch.Statuses()
					if len(st) != 2 || st[1].Name != row.oneEpoch || st[1].State != "expired" {
						t.Fatalf("after the refused epoch the registry reads %+v, want %s expired", st, row.oneEpoch)
					}
					left := len(dp.Fabric.Rules(row.oneEpoch)) != 0
					for _, r := range dp.Radios {
						left = left || r.Share(row.oneEpoch) != 0
					}
					for _, cu := range dp.CUs {
						left = left || cu.Pinned(row.oneEpoch) != 0
					}
					if left {
						t.Fatalf("expired %s left data-plane state behind", row.oneEpoch)
					}
				}
				for b := 0; b < 2; b++ {
					for theta := 0; theta <= e; theta++ {
						s.store.Add(monitor.Sample{Slice: "u1", Metric: monitor.LoadMetric, Element: monitor.BSElement(b), Epoch: e, Theta: theta, Value: 5})
					}
				}
			}
			if got, served := s.orch.loop.Epoch(), getBytes(t, s.orch, "/epoch"); got != 6 || served != "{\"epoch\":6}\n" {
				t.Fatalf("after 6 epochs the loop is at epoch %d and GET /epoch serves %s, want 6", got, served)
			}
			line := s.orch.Yield().PerSlice
			if len(line) == 0 || line[len(line)-1].Slice != "u1" || line[len(line)-1].Epochs != 5 || line[len(line)-1].Samples != 30 {
				t.Fatalf("ledger %+v, want u1 settled for epochs 0..4 once each (5 epochs, 30 samples)", line)
			}
			committed, err := s.orch.eng.CommittedDetail(admission.DefaultDomain)
			if err != nil {
				t.Fatal(err)
			}
			st := s.orch.Statuses()
			if len(committed) != 1 || len(st) != 1 || committed[0].Remaining != duration-6 || st[0].Remaining != duration-6 {
				t.Fatalf("remaining: engine %+v, registry %+v, want both at %d", committed, st, duration-6)
			}
		})
	}
}
