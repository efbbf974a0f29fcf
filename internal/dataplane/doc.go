// Package dataplane emulates the paper's data plane (§2.1, §5): base
// stations with RAN-sharing radio schedulers (a carrier share in MHz per
// slice, the paper's proprietary NEC small-cell interface), an
// OpenFlow-style switch fabric with per-slice rate-limited flow rules, and
// computing units running per-slice stacks with pinned CPU reservations
// (OpenStack Heat + CPU pinning). It substitutes the commercial hardware of
// Table 2 and holds only the state the domain controllers program: each
// write checks the domain's capacity and is refused when it would not fit.
package dataplane
