package topology

import (
	"encoding/json"
	"fmt"
	"io"
)

// networkJSON is the stable wire form of a Network, so topologies can be
// exported for plotting (the Fig. 4 maps), diffed across versions, or
// loaded from externally provided operator data instead of the built-in
// synthetic generators.
type networkJSON struct {
	Name  string `json:"name"`
	Nodes []Node `json:"nodes"`
	Links []Link `json:"links"`
	BSs   []BS   `json:"base_stations"`
	CUs   []CU   `json:"computing_units"`
}

// WriteJSON serializes the network.
func (n *Network) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(networkJSON{
		Name: n.Name, Nodes: n.Nodes, Links: n.Links, BSs: n.BSs, CUs: n.CUs,
	})
}

// ReadJSON deserializes a network and validates its referential integrity
// before building the adjacency index.
func ReadJSON(r io.Reader) (*Network, error) {
	var nj networkJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&nj); err != nil {
		return nil, fmt.Errorf("topology: decode: %w", err)
	}
	n := &Network{Name: nj.Name, Nodes: nj.Nodes, Links: nj.Links, BSs: nj.BSs, CUs: nj.CUs}
	if err := n.validate(); err != nil {
		return nil, err
	}
	n.build()
	return n, nil
}

// validate checks IDs, endpoints and element references.
func (n *Network) validate() error {
	for i, node := range n.Nodes {
		if node.ID != i {
			return fmt.Errorf("topology: node %d has ID %d (IDs must be dense indices)", i, node.ID)
		}
	}
	inRange := func(v int) bool { return v >= 0 && v < len(n.Nodes) }
	for i, l := range n.Links {
		if l.ID != i {
			return fmt.Errorf("topology: link %d has ID %d", i, l.ID)
		}
		if !inRange(l.A) || !inRange(l.B) || l.A == l.B {
			return fmt.Errorf("topology: link %d endpoints %d-%d invalid", i, l.A, l.B)
		}
		if l.CapMbps <= 0 {
			return fmt.Errorf("topology: link %d has non-positive capacity", i)
		}
	}
	for i, bs := range n.BSs {
		if !inRange(bs.Node) || n.Nodes[bs.Node].Kind != BSNode {
			return fmt.Errorf("topology: BS %d references node %d which is not a BS node", i, bs.Node)
		}
		if bs.CapMHz <= 0 || bs.Eta <= 0 {
			return fmt.Errorf("topology: BS %d has non-positive radio parameters", i)
		}
	}
	// A CU sits on a CU node or is co-located with a switch (Metro puts each
	// pod's edge CU on the pod gateway); a radio site never hosts one.
	for i, cu := range n.CUs {
		if !inRange(cu.Node) || n.Nodes[cu.Node].Kind == BSNode {
			return fmt.Errorf("topology: CU %d references node %d which is not a CU or switch node", i, cu.Node)
		}
		if cu.CPUCores <= 0 {
			return fmt.Errorf("topology: CU %d has non-positive CPU pool", i)
		}
	}
	return nil
}
