package topology

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	orig := Romanian(20)
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || back.NumBS() != orig.NumBS() ||
		back.NumCU() != orig.NumCU() || len(back.Links) != len(orig.Links) {
		t.Fatal("round trip lost elements")
	}
	// The rebuilt adjacency must produce identical path sets.
	a := orig.ComputeStats(4)
	b := back.ComputeStats(4)
	if a.MeanPathsPerBS != b.MeanPathsPerBS || len(a.PathDelays) != len(b.PathDelays) {
		t.Fatal("round trip changed path structure")
	}
	for i := range a.PathDelays {
		if a.PathDelays[i] != b.PathDelays[i] {
			t.Fatal("path delays differ after round trip")
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":        `{{{`,
		"unknown field":   `{"name":"x","bogus":1}`,
		"bad node ids":    `{"name":"x","nodes":[{"ID":7}]}`,
		"bad link":        `{"name":"x","nodes":[{"ID":0},{"ID":1}],"links":[{"ID":0,"A":0,"B":0,"CapMbps":5}]}`,
		"zero capacity":   `{"name":"x","nodes":[{"ID":0},{"ID":1}],"links":[{"ID":0,"A":0,"B":1}]}`,
		"bs wrong kind":   `{"name":"x","nodes":[{"ID":0,"Kind":0}],"base_stations":[{"Node":0,"CapMHz":20,"Eta":0.13}]}`,
		"cu on bs node":   `{"name":"x","nodes":[{"ID":0,"Kind":1}],"computing_units":[{"Node":0,"CPUCores":4}]}`,
		"cu out of range": `{"name":"x","nodes":[{"ID":0,"Kind":2}],"computing_units":[{"Node":5,"CPUCores":4}]}`,
		"cu zero pool":    `{"name":"x","nodes":[{"ID":0,"Kind":2}],"computing_units":[{"Node":0,"CPUCores":0}]}`,
	}
	for name, doc := range cases {
		if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted invalid document", name)
		}
	}
}

func TestReadJSONMinimalValid(t *testing.T) {
	doc := `{
	  "name": "mini",
	  "nodes": [{"ID":0,"Kind":1}, {"ID":1,"Kind":0}, {"ID":2,"Kind":2}],
	  "links": [{"ID":0,"A":0,"B":1,"CapMbps":1000}, {"ID":1,"A":1,"B":2,"CapMbps":1000}],
	  "base_stations": [{"Node":0,"CapMHz":20,"Eta":0.1333}],
	  "computing_units": [{"Node":2,"CPUCores":8,"Edge":true}]
	}`
	n, err := ReadJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Paths(2)[0][0]); got != 1 {
		t.Errorf("expected 1 path through the minimal network, got %d", got)
	}
}

// TestMetroJSONRoundTrip pins that the metro archetype survives its own wire
// form — one pod (what a cluster worker is assigned) and a multi-pod network
// with a partial last pod. Metro co-locates each pod's edge CU with the pod
// gateway, a switch node.
func TestMetroJSONRoundTrip(t *testing.T) {
	for _, nBS := range []int{MetroPodBS, 2*MetroPodBS + 5} {
		orig := Metro(nBS)
		var buf bytes.Buffer
		if err := orig.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("Metro(%d): %v", nBS, err)
		}
		if back.Name != orig.Name || !reflect.DeepEqual(back.Nodes, orig.Nodes) ||
			!reflect.DeepEqual(back.Links, orig.Links) || !reflect.DeepEqual(back.BSs, orig.BSs) ||
			!reflect.DeepEqual(back.CUs, orig.CUs) {
			t.Fatalf("Metro(%d): round trip changed the network", nBS)
		}
		if !reflect.DeepEqual(back.Paths(1), orig.Paths(1)) {
			t.Fatalf("Metro(%d): round trip changed the path sets", nBS)
		}
	}
}
