package dataplane

import (
	"testing"

	"repro/internal/topology"
)

func TestRadioSchedulerShares(t *testing.T) {
	r := NewRadioScheduler(topology.BS{CapMHz: 20, Eta: 20.0 / 150.0})
	if err := r.SetShare("a", 10); err != nil {
		t.Fatal(err)
	}
	if err := r.SetShare("b", 10); err != nil {
		t.Fatal(err)
	}
	if err := r.SetShare("c", 1); err == nil {
		t.Error("overcommitted carrier accepted")
	}
	// Resizing an existing share must not double count.
	if err := r.SetShare("a", 5); err != nil {
		t.Fatal(err)
	}
	if err := r.SetShare("c", 5); err != nil {
		t.Fatal(err)
	}
	if got := r.Share("a"); got != 5 {
		t.Errorf("resized share %v MHz, want 5", got)
	}
	// A zero share removes the slice and frees its carrier.
	if err := r.SetShare("a", 0); err != nil || r.Share("a") != 0 {
		t.Errorf("zero share: err %v, share %v", err, r.Share("a"))
	}
	if err := r.SetShare("d", 5); err != nil {
		t.Errorf("freed carrier refused: %v", err)
	}
}

func TestFabricOversubscription(t *testing.T) {
	net := topology.Testbed() // 1 Gb/s links
	f := NewFabric(net)
	mk := func(sl string, mbps float64) []FlowRule {
		return []FlowRule{{Slice: sl, LinkIDs: []int{0, 2}, RateMbps: mbps}}
	}
	if err := f.Install("a", mk("a", 600)); err != nil {
		t.Fatal(err)
	}
	if err := f.Install("b", mk("b", 600)); err == nil {
		t.Error("1 Gb/s link accepted 1200 Mb/s of meters")
	}
	if err := f.Install("b", mk("b", 300)); err != nil {
		t.Fatal(err)
	}
	// Link 0 now carries 900 Mb/s of meters.
	if err := f.Install("c", mk("c", 101)); err == nil {
		t.Error("link at 900 Mb/s accepted another 101")
	}
	// Re-installing the same slice replaces, not adds.
	if err := f.Install("a", mk("a", 700)); err != nil {
		t.Fatal(err)
	}
	if got := f.Rules("a"); len(got) != 1 || got[0].RateMbps != 700 {
		t.Errorf("after resize: rules %+v, want one 700 Mb/s meter", got)
	}
	f.Remove("a")
	if len(f.Rules("a")) != 0 {
		t.Error("removed slice still holds rules")
	}
	if err := f.Install("c", mk("c", 700)); err != nil {
		t.Errorf("removal did not free the link: %v", err)
	}
}

func TestComputeUnitPinning(t *testing.T) {
	c := NewComputeUnit(topology.CU{CPUCores: 16})
	if err := c.Deploy(Stack{Slice: "a", PinnedCores: 10}); err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(Stack{Slice: "b", PinnedCores: 10}); err == nil {
		t.Error("pool overcommitted")
	}
	if err := c.Deploy(Stack{Slice: "a", PinnedCores: 6}); err != nil {
		t.Fatal(err) // resize down
	}
	if err := c.Deploy(Stack{Slice: "b", PinnedCores: 10}); err != nil {
		t.Fatal(err)
	}
	if c.Pinned("a") != 6 || c.Pinned("b") != 10 {
		t.Errorf("pinned a=%v b=%v, want 6 and 10", c.Pinned("a"), c.Pinned("b"))
	}
	c.Destroy("a")
	if c.Pinned("a") != 0 {
		t.Error("destroyed stack still pinned")
	}
}
