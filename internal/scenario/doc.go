// Package scenario is the declarative workload engine: a Spec names a
// topology, an arrival process, and a mix of SLA classes, and Compile turns
// it — fully seeded and reproducibly — into the sim.Config the epoch
// pipeline executes. It is the one place slice populations are built (the
// Fig. 5/6 sweeps in internal/experiments use it too), and the substrate
// new workloads plug into: a scenario is data, so a new traffic pattern is a
// Spec literal, not a new harness. BuildTopology is the one topology-name
// table.
//
// The paper's evaluation (§4.3) draws every result from sweeps over
// scenario families — homogeneous Gaussian grids (Fig. 5), heterogeneous
// mixes (Fig. 6), the diurnal testbed day (Fig. 8). Archetypes() exposes
// those plus the workloads the paper motivates but never simulates
// (flash crowds, heavy-tailed demand); `scenario run` in cmd/ drives any of
// them from the command line.
package scenario
