package ctrlplane

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/topology"
)

// postJSON posts v to the orchestrator path and returns the response.
func (s *stack) postJSON(t *testing.T, path string, v interface{}) *http.Response {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.orchSrv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestTopologyEventsThroughREST drives an outage and a recovery through the
// northbound API: a committed slice must survive a full BS outage (the
// deficit relaxation keeps it placed), the injected events must read back
// from GET /topology, and an out-of-range event must be refused without
// touching engine state.
func TestTopologyEventsThroughREST(t *testing.T) {
	s := newStack(t, "direct")
	if resp := s.submit(t, urllcReq("u1")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	rep := s.epoch(t)
	if len(rep.Accepted) != 1 {
		t.Fatalf("accepted = %v", rep.Accepted)
	}

	resp := s.postJSON(t, "/topology", []topology.Event{topology.BSOutage(0, 0)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outage injection: %s", resp.Status)
	}
	resp.Body.Close()

	// The next epoch re-solves against the degraded network; the committed
	// slice must stay active rather than be evicted.
	rep = s.epoch(t)
	active := false
	for _, st := range rep.Slices {
		if st.Name == "u1" && st.State == "active" {
			active = true
		}
	}
	if !active {
		t.Fatalf("slice u1 not active after outage: %+v", rep.Slices)
	}

	resp = s.postJSON(t, "/topology", []topology.Event{topology.BSRecover(0, 0)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery injection: %s", resp.Status)
	}
	resp.Body.Close()
	s.epoch(t)

	getResp, err := http.Get(s.orchSrv.URL + "/topology")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	var events []topology.Event
	if err := json.NewDecoder(getResp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("GET /topology returned %d events, want 2: %+v", len(events), events)
	}
	if events[1].Factor != 1 {
		t.Fatalf("last event is not the recovery: %+v", events[1])
	}

	// Out-of-range index: refused, and the applied stream is unchanged.
	resp = s.postJSON(t, "/topology", []topology.Event{topology.BSOutage(0, 99)})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad event index: got %s, want 422", resp.Status)
	}
	resp.Body.Close()
	getResp, err = http.Get(s.orchSrv.URL + "/topology")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	events = nil
	if err := json.NewDecoder(getResp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("rejected event leaked into the stream: %+v", events)
	}
}
