package ctrlplane

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/monitor"
	"repro/internal/topology"
)

// TestDecodeBodyHardening drives the strict JSON decoder through its
// failure modes: oversized bodies, unknown fields, malformed and trailing
// payloads must all be rejected; a well-formed document must pass.
func TestDecodeBodyHardening(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req SliceRequest
		if err := decodeBody(w, r, &req); err != nil {
			httpBodyError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, req)
	})

	huge := `{"name":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	cases := []struct {
		name string
		body string
		want int
	}{
		{"valid", `{"name":"s1","type":"eMBB","duration_epochs":3}`, http.StatusOK},
		{"valid with tenant", `{"name":"s1","tenant":"acme","type":"eMBB"}`, http.StatusOK},
		{"empty body", ``, http.StatusBadRequest},
		{"malformed json", `{"name":`, http.StatusBadRequest},
		{"wrong field type", `{"name":42}`, http.StatusBadRequest},
		{"unknown field", `{"name":"s1","admin":true}`, http.StatusBadRequest},
		{"trailing garbage", `{"name":"s1"} {"name":"s2"}`, http.StatusBadRequest},
		{"array not object", `[{"name":"s1"}]`, http.StatusBadRequest},
		{"oversized body", huge, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/requests", strings.NewReader(tc.body))
			handler.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Fatalf("status %d, want %d (body: %s)", rec.Code, tc.want, rec.Body.String())
			}
		})
	}
}

// TestControllerEndpointsRejectHostilePayloads checks the hardened decoder
// is actually wired at every controller's POST surface, not just the
// helper.
func TestControllerEndpointsRejectHostilePayloads(t *testing.T) {
	s := newStack(t, "direct")
	endpoints := []struct {
		url  string
		body string
	}{
		{s.ran.URL + "/shares", `{"set":[{"slice":"x","share_mhz":[1,1],"extra":1}]}`},
		{s.tn.URL + "/flows", `{"set":[{"slice":"x","rules":[]}],"extra":1}`},
		{s.cloud.URL + "/stacks", `{"slice":"x","cu":0}`}, // the pre-document per-slice body
		{s.orchSrv.URL + "/requests", `{"name":"x","bogus":true}`},
		{s.mgr.URL + "/requests", `{"name":"x","bogus":true}`},
	}
	for _, ep := range endpoints {
		resp, err := http.Post(ep.url, "application/json", bytes.NewReader([]byte(ep.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with unknown field: %s, want 400", ep.url, resp.Status)
		}
	}
}

// TestRANControllerRollsBackPartialShares pins the RAN handler's rollback:
// when BS 1 refuses a slice's share, the share BS 0 already took is undone,
// the document stops with 409, and other slices' shares stay.
func TestRANControllerRollsBackPartialShares(t *testing.T) {
	dp := dataplane.NewEmulator(topology.Testbed()) // 20 MHz carriers
	if err := dp.Radios[1].SetShare("y", 15); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	body := `{"set":[{"slice":"x","share_mhz":[5,10]}]}`
	NewRANController(dp).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shares", strings.NewReader(body)))
	if rec.Code != http.StatusConflict {
		t.Fatalf("status %d, want 409 (body: %s)", rec.Code, rec.Body.String())
	}
	if dp.Radios[0].Share("x") != 0 || dp.Radios[1].Share("x") != 0 {
		t.Errorf("x keeps shares %v/%v MHz after BS 1 refused it", dp.Radios[0].Share("x"), dp.Radios[1].Share("x"))
	}
	if dp.Radios[1].Share("y") != 15 {
		t.Errorf("rollback touched y: %v MHz, want 15", dp.Radios[1].Share("y"))
	}
}

// TestRegisterBackpressure fills the engine's bounded intake and checks the
// HTTP surface reports backpressure as 429, not as a conflict.
func TestRegisterBackpressure(t *testing.T) {
	net := topology.Testbed()
	orch, err := NewOrchestrator(OrchestratorConfig{
		Net: net, Algorithm: "direct", Store: monitor.NewStore(0),
		QueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { orch.Close() }) //nolint:errcheck // engine worker teardown
	srv := httptest.NewServer(orch.Handler())
	t.Cleanup(srv.Close)

	post := func(name string) int {
		t.Helper()
		nsd := BuildNSD(SliceRequest{Name: name, Type: "eMBB", DurationEpochs: 4})
		b, _ := json.Marshal(nsd)
		resp, err := http.Post(srv.URL+"/requests", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("a"); got != http.StatusAccepted {
		t.Fatalf("first: %d", got)
	}
	if got := post("b"); got != http.StatusAccepted {
		t.Fatalf("second: %d", got)
	}
	if got := post("c"); got != http.StatusTooManyRequests {
		t.Fatalf("overload: %d, want 429", got)
	}
	// A duplicate is still a conflict, not backpressure.
	if got := post("a"); got != http.StatusConflict {
		t.Fatalf("duplicate: %d, want 409", got)
	}
}

// TestMetricsEndpoint reads the admission engine's snapshot through the
// orchestrator's REST surface after a full epoch.
func TestMetricsEndpoint(t *testing.T) {
	s := newStack(t, "direct")
	s.submit(t, urllcReq("u1"))
	s.epoch(t)

	resp, err := http.Get(s.orchSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m["submitted"].(float64) != 1 || m["admitted"].(float64) != 1 || m["rounds"].(float64) != 1 {
		t.Fatalf("metrics: %v", m)
	}
	// The engine's round vitals land in the shared monitoring store.
	if len(s.store.ElementEpochSamples("admission", "round_ms", "default", 0)) == 0 {
		t.Error("admission round sample missing from the monitor store")
	}
}
