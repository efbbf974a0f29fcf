package topology

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecodeTopology drives ReadJSON with arbitrary input: any byte string
// must either decode into a network that survives basic use (path
// enumeration over a decoded graph must not panic either) or return an
// error — never panic and never accept a structurally inconsistent graph.
func FuzzDecodeTopology(f *testing.F) {
	// Seed corpus: a valid round-tripped network plus targeted mutations of
	// the failure classes the validator must catch.
	var buf bytes.Buffer
	if err := Testbed().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add(valid)
	f.Add(`{}`)
	f.Add(`{"name":"x","nodes":[],"links":[],"base_stations":[],"computing_units":[]}`)
	f.Add(strings.Replace(valid, `"id": 0`, `"id": 7`, 1))
	f.Add(strings.Replace(valid, `"A": 0`, `"A": -1`, 1))
	f.Add(strings.Replace(valid, `"CapMbps": `, `"CapMbps": -`, 1))
	f.Add(`{"name":"x","nodes":[{"ID":0,"Kind":1,"X":0,"Y":0}],"links":[],` +
		`"base_stations":[{"Node":0,"CapMHz":100,"Eta":0.13}],"computing_units":[{"Node":0,"CPUCores":4,"Edge":true}]}`)
	f.Add(`{"nodes":[{"ID":0,"Kind":1},{"ID":1,"Kind":2}],"links":[{"ID":0,"A":0,"B":1,"CapMbps":100}],` +
		`"base_stations":[{"Node":0,"CapMHz":100,"Eta":0.13}],"computing_units":[{"Node":1,"CPUCores":4}]}`)

	f.Fuzz(func(t *testing.T, data string) {
		n, err := ReadJSON(strings.NewReader(data))
		if err != nil {
			return
		}
		// A decoded network must be safe to use: serialization, stats and
		// path enumeration all operate on validated invariants.
		var out bytes.Buffer
		if err := n.WriteJSON(&out); err != nil {
			t.Fatalf("decoded network failed to re-encode: %v", err)
		}
		_ = n.Paths(2)
		for b := range n.BSs {
			for c := range n.CUs {
				_ = shortestDelay(n, b, c)
			}
		}
	})
}
