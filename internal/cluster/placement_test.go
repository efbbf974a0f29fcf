package cluster

import (
	"fmt"
	"testing"
)

// Placement is load-bearing for determinism: every coordinator (and every
// restart of one) must derive the identical domain→worker map from the
// same member set, and a single worker loss must move only that worker's
// domains. Both properties are pinned table-driven across member-set
// shapes and seeds.

func someDomains(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("domain-%02d", i)
	}
	return out
}

func TestPlacementDeterministicAcrossOrder(t *testing.T) {
	cases := []struct {
		name    string
		members []string
		shuffle []string // same set, different discovery order
	}{
		{"two", []string{"w0", "w1"}, []string{"w1", "w0"}},
		{"four", []string{"w0", "w1", "w2", "w3"}, []string{"w3", "w1", "w0", "w2"}},
		{"hostnames", []string{"rack1:9000", "rack2:9000", "rack3:9000"},
			[]string{"rack3:9000", "rack1:9000", "rack2:9000"}},
		{"single", []string{"only"}, []string{"only"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{0, 1, 42, 1 << 40} {
				for _, d := range someDomains(16) {
					a, okA := placeDomain(seed, d, tc.members)
					b, okB := placeDomain(seed, d, tc.shuffle)
					if !okA || !okB || a != b {
						t.Fatalf("seed=%d domain=%s: order changed owner: %q vs %q", seed, d, a, b)
					}
				}
			}
		})
	}
}

func TestPlacementMinimalMovementOnSingleLeave(t *testing.T) {
	cases := []struct {
		name    string
		members []string
		leave   string
	}{
		{"lose-one-of-two", []string{"w0", "w1"}, "w0"},
		{"lose-one-of-four", []string{"w0", "w1", "w2", "w3"}, "w2"},
		{"lose-one-of-eight", someDomains(8), "domain-03"}, // ids are arbitrary strings
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			survivors := make([]string, 0, len(tc.members)-1)
			for _, m := range tc.members {
				if m != tc.leave {
					survivors = append(survivors, m)
				}
			}
			moved, kept := 0, 0
			for _, d := range someDomains(64) {
				before, _ := placeDomain(7, d, tc.members)
				after, ok := placeDomain(7, d, survivors)
				if !ok {
					t.Fatalf("domain %s lost its owner entirely", d)
				}
				if before == tc.leave {
					moved++
					continue // these must move; anywhere is fine
				}
				kept++
				if after != before {
					t.Fatalf("domain %s moved from surviving worker %q to %q on an unrelated leave",
						d, before, after)
				}
			}
			if moved == 0 && len(tc.members) > 1 {
				t.Logf("note: departed worker %q owned no domains in this draw", tc.leave)
			}
			if kept == 0 {
				t.Fatalf("degenerate case: every domain was on the departed worker")
			}
		})
	}
}

func TestPlacementEmptyMembership(t *testing.T) {
	if owner, ok := placeDomain(1, "d", nil); ok {
		t.Fatalf("empty membership produced owner %q", owner)
	}
}
