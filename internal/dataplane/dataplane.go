package dataplane

import (
	"fmt"
	"sync"

	"repro/internal/topology"
)

// RadioScheduler emulates one BS's slice-aware MAC scheduler: each slice
// owns a share of the carrier (in MHz).
type RadioScheduler struct {
	mu     sync.Mutex
	capMHz float64
	shares map[string]float64
}

// NewRadioScheduler creates a scheduler for a BS.
func NewRadioScheduler(bs topology.BS) *RadioScheduler {
	return &RadioScheduler{capMHz: bs.CapMHz, shares: map[string]float64{}}
}

// SetShare grants the slice a share of the carrier in MHz. It fails when
// the sum of shares would exceed the carrier.
func (r *RadioScheduler) SetShare(sl string, mhz float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := mhz
	for s, v := range r.shares {
		if s != sl {
			total += v
		}
	}
	if total > r.capMHz+1e-9 {
		return fmt.Errorf("dataplane: radio shares %.2f MHz exceed carrier %.2f MHz", total, r.capMHz)
	}
	if mhz <= 0 {
		delete(r.shares, sl)
	} else {
		r.shares[sl] = mhz
	}
	return nil
}

// Share returns the slice's configured share in MHz.
func (r *RadioScheduler) Share(sl string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shares[sl]
}

// FlowRule is an OpenFlow-style entry: slice traffic toward a path is
// rate-limited to the reserved bitrate.
type FlowRule struct {
	Slice    string
	LinkIDs  []int   // the programmed path
	RateMbps float64 // meter: reserved bitrate
}

// Fabric emulates the SDN transport: per-slice flow rules with meters and
// per-link capacity accounting.
type Fabric struct {
	mu    sync.Mutex
	net   *topology.Network
	rules map[string][]FlowRule // slice -> rules (one per BS typically)
}

// NewFabric creates the transport fabric for a topology.
func NewFabric(net *topology.Network) *Fabric {
	return &Fabric{net: net, rules: map[string][]FlowRule{}}
}

// Install replaces the slice's flow rules after validating that every
// link's installed meters fit its capacity.
func (f *Fabric) Install(sl string, rules []FlowRule) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	use := map[int]float64{}
	for s, rs := range f.rules {
		if s == sl {
			continue
		}
		for _, r := range rs {
			for _, l := range r.LinkIDs {
				use[l] += r.RateMbps
			}
		}
	}
	for _, r := range rules {
		for _, l := range r.LinkIDs {
			use[l] += r.RateMbps
		}
	}
	for lid, u := range use {
		link := f.net.LinkByID(lid)
		if link.CapMbps < 1e8 && u > link.CapMbps+1e-6 {
			return fmt.Errorf("dataplane: link %d oversubscribed: %.1f > %.1f Mb/s", lid, u, link.CapMbps)
		}
	}
	f.rules[sl] = rules
	return nil
}

// Remove deletes all rules of a slice (slice teardown).
func (f *Fabric) Remove(sl string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.rules, sl)
}

// Rules returns a copy of the slice's installed rules.
func (f *Fabric) Rules(sl string) []FlowRule {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]FlowRule(nil), f.rules[sl]...)
}

// Stack is a per-slice cloud deployment: the network service VMs with a
// pinned CPU reservation (the Heat stack of §2.2.3).
type Stack struct {
	Slice       string
	PinnedCores float64
}

// ComputeUnit emulates one CU: a CPU pool hosting pinned stacks.
type ComputeUnit struct {
	mu     sync.Mutex
	cores  float64
	stacks map[string]Stack
}

// NewComputeUnit creates a CU with the given CPU pool.
func NewComputeUnit(cu topology.CU) *ComputeUnit {
	return &ComputeUnit{cores: cu.CPUCores, stacks: map[string]Stack{}}
}

// Deploy creates or resizes a slice's stack; it fails when pinned cores
// would exceed the pool.
func (c *ComputeUnit) Deploy(st Stack) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := st.PinnedCores
	for s, other := range c.stacks {
		if s != st.Slice {
			total += other.PinnedCores
		}
	}
	if total > c.cores+1e-9 {
		return fmt.Errorf("dataplane: CPU pinning %.1f exceeds pool %.1f", total, c.cores)
	}
	c.stacks[st.Slice] = st
	return nil
}

// Destroy removes a slice's stack.
func (c *ComputeUnit) Destroy(sl string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.stacks, sl)
}

// Pinned returns the slice's pinned cores, zero if absent.
func (c *ComputeUnit) Pinned(sl string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stacks[sl].PinnedCores
}

// Emulator bundles one radio scheduler per BS, the fabric and one compute
// unit per CU — the full emulated data plane the controllers program.
type Emulator struct {
	Radios []*RadioScheduler
	Fabric *Fabric
	CUs    []*ComputeUnit
}

// NewEmulator builds the data plane for a topology.
func NewEmulator(net *topology.Network) *Emulator {
	e := &Emulator{Fabric: NewFabric(net)}
	for _, bs := range net.BSs {
		e.Radios = append(e.Radios, NewRadioScheduler(bs))
	}
	for _, cu := range net.CUs {
		e.CUs = append(e.CUs, NewComputeUnit(cu))
	}
	return e
}
