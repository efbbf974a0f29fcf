package cluster

import "hash/fnv"

// Placement is seeded rendezvous (highest-random-weight) hashing: every
// (member, domain) pair gets a deterministic score and the domain belongs
// to the member with the highest score. The two properties the control
// plane leans on fall out of the construction:
//
//   - Determinism: the score depends only on (seed, domain, member), so
//     the same member set — in any discovery order — yields the same
//     assignment on every coordinator, every restart, every machine.
//   - Minimal movement: removing a member can only reassign the domains
//     that member owned (the argmax over the survivors is unchanged for
//     every other domain), so a worker loss rebalances exactly the lost
//     worker's load and nothing else.
//
// Ties (astronomically unlikely with 64-bit scores, but the placement
// must be total) break toward the lexicographically smaller member ID.

// placementSeed is the seed every coordinator places under. Any fixed
// value works; the placement tests range over several.
const placementSeed = 0

// placementScore is the deterministic weight of member m for domain d.
func placementScore(seed uint64, domain, member string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(domain))
	h.Write([]byte{0}) // unambiguous boundary: ("ab","c") != ("a","bc")
	h.Write([]byte(member))
	return h.Sum64()
}

// placeDomain returns the owning member for domain among members, or
// false when members is empty. members may arrive in any order.
func placeDomain(seed uint64, domain string, members []string) (string, bool) {
	best, bestScore, found := "", uint64(0), false
	for _, m := range members {
		s := placementScore(seed, domain, m)
		if !found || s > bestScore || (s == bestScore && m < best) {
			best, bestScore, found = m, s, true
		}
	}
	return best, found
}
