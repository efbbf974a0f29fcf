package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/topology"
)

// Instance replay: the traced pass records every round's solver inputs at
// the Executor seam; after the clock has stopped, this file rebuilds the
// core.Instances from them and times the solver layers one by one — the warm
// session over each domain's round sequence, a cold Benders solve, the
// monolithic MILP, its LP relaxation cold and warm. None of this is on the
// measured path; it only fills the core., milp. and lp. per-layer series.

// replaySet is one engine's recorded rounds with the domain configs needed
// to rebuild their instances.
type replaySet struct {
	domains map[string]admission.DomainConfig
	inputs  []roundInput
}

// replayDirectMaxCols gates the monolithic solves (SolveDirect, milp.Solve,
// the cold dense-tableau LP): beyond this many LP columns one of them runs
// for longer than the whole replay budget (a metro pod's batch instance has
// several thousand), so only the Benders paths replay there.
const replayDirectMaxCols = 1500

type replayInst struct {
	domain string
	inst   *core.Instance
}

// instanceBuilder assembles a round's core.Instance from what crosses the
// Executor seam, the way engine.execRound and cluster.SolverHost.Solve do:
// the base network with the accumulated capacity events folded in, the
// domain's precomputed path sets, the tenants in canonical order. The traced
// pass's local executor solves what it builds; instance replay rebuilds the
// same instances afterwards.
type instanceBuilder struct {
	mu      sync.Mutex
	domains map[string]*builderDomain
}

type builderDomain struct {
	dc    admission.DomainConfig // normalized
	paths [][][]topology.Path
	nets  map[int]*topology.Network // by accumulated event count (events are append-only)
}

func newInstanceBuilder() *instanceBuilder {
	return &instanceBuilder{domains: map[string]*builderDomain{}}
}

func (b *instanceBuilder) register(name string, dc admission.DomainConfig) error {
	dc, err := dc.Normalized()
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.domains[name] = &builderDomain{dc: dc, paths: dc.Net.Paths(dc.KPaths), nets: map[int]*topology.Network{0: dc.Net}}
	b.mu.Unlock()
	return nil
}

func (b *instanceBuilder) build(domain string, events []topology.Event, tenants []core.TenantSpec) (*core.Instance, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.domains[domain]
	if d == nil {
		return nil, fmt.Errorf("benchmark: domain %q not registered", domain)
	}
	net := d.nets[len(events)]
	if net == nil {
		var err error
		if net, err = topology.Apply(d.dc.Net, events); err != nil {
			return nil, err
		}
		d.nets[len(events)] = net
	}
	return &core.Instance{
		Net: net, Paths: d.paths, Tenants: tenants,
		Overbook: d.dc.Algorithm != "no-overbooking", BigM: d.dc.BigM, RiskHorizon: d.dc.RiskHorizon,
	}, nil
}

// instances rebuilds the recorded rounds, in recording order.
func (s replaySet) instances() []replayInst {
	b := newInstanceBuilder()
	for name, dc := range s.domains {
		if err := b.register(name, dc); err != nil {
			return nil
		}
	}
	var out []replayInst
	for _, in := range s.inputs {
		if len(in.tenants) == 0 {
			continue
		}
		if inst, err := b.build(in.domain, in.events, in.tenants); err == nil {
			out = append(out, replayInst{in.domain, inst})
		}
	}
	return out
}

// replayLayers runs the replay within budget — half for the warm sessions
// (a domain's first round is its cold one and must not eat the stage), a sixth
// for each other stage — and books the samples on p.
func replayLayers(p *pass, sets []replaySet, budget time.Duration) {
	var all []replayInst
	for _, s := range sets {
		all = append(all, s.instances()...)
	}
	if len(all) == 0 {
		return
	}
	stage := budget / 6

	// Stage 1 — warm: one BendersSession per domain over its own sequence,
	// exactly what the engine's shard keeps.
	byDomain := map[string][]*core.Instance{}
	var order []string
	for _, ri := range all {
		if byDomain[ri.domain] == nil {
			order = append(order, ri.domain)
		}
		byDomain[ri.domain] = append(byDomain[ri.domain], ri.inst)
	}
	deadline := time.Now().Add(budget / 2)
	for _, dom := range order {
		sess := core.NewBendersSession(core.BendersOptions{})
		for _, inst := range byDomain[dom] {
			if time.Now().After(deadline) {
				break
			}
			t := time.Now()
			if _, err := sess.Solve(inst); err != nil {
				break
			}
			p.obs("core.warm_session_ms", ms(time.Since(t)))
		}
	}

	// The remaining stages sample the recorded rounds evenly, largest
	// stride first, so a budget that runs out early has still seen the
	// whole pass rather than its first seconds.
	sample := strided(len(all), 64)

	// Stage 2 — cold Benders per instance.
	deadline = time.Now().Add(stage)
	for _, i := range sample {
		if time.Now().After(deadline) {
			break
		}
		t := time.Now()
		if _, err := core.SolveBenders(all[i].inst, core.BendersOptions{}); err == nil {
			p.obs("core.cold_solve_ms", ms(time.Since(t)))
		}
	}

	// Stage 3 — the monolithic model: SolveDirect and the bare milp.Solve.
	deadline = time.Now().Add(stage)
	for _, i := range sample {
		if time.Now().After(deadline) {
			break
		}
		prob, bins := core.DebugBuild(all[i].inst)
		p.obs("lp.rows", float64(prob.NumRows()))
		p.obs("lp.cols", float64(prob.NumVars()))
		if prob.NumVars() > replayDirectMaxCols {
			continue
		}
		t := time.Now()
		if _, err := core.SolveDirect(all[i].inst); err == nil {
			p.obs("core.direct_solve_ms", ms(time.Since(t)))
		}
		t = time.Now()
		if sol, err := milp.Solve(prob, bins, milp.Options{}); err == nil {
			p.obs("milp.solve_ms", ms(time.Since(t)))
			p.obs("milp.nodes", float64(sol.Nodes))
			p.obs("milp.pivots", float64(sol.Pivots))
		}
	}

	// Stage 4 — the LP relaxation: presolve, cold solve, and the warm
	// re-entry after moving the right-hand side to the next recorded round
	// of the same shape.
	deadline = time.Now().Add(stage)
	relax := func(inst *core.Instance) *lp.Problem {
		prob, bins := core.DebugBuild(inst)
		for _, v := range bins {
			prob.SetBounds(v, 0, 1)
		}
		return prob
	}
	for _, i := range sample {
		if time.Now().After(deadline) {
			break
		}
		prob := relax(all[i].inst)
		t := time.Now()
		ps := lp.Presolve(prob)
		p.obs("lp.presolve_us", us(time.Since(t)))
		_, rows := ps.Stats()
		p.obs("lp.presolve_rows_removed", float64(rows))
		if prob.NumVars() <= replayDirectMaxCols {
			t = time.Now()
			if sol, err := prob.Solve(); err == nil {
				p.obs("lp.cold_solve_ms", ms(time.Since(t)))
				p.obs("lp.cold_pivots", float64(sol.Pivots))
			}
		}
		// Warm: the next recorded round of the same domain, if its LP has
		// the same shape, differs in right-hand sides only.
		if i+1 >= len(all) || all[i+1].domain != all[i].domain {
			continue
		}
		next := relax(all[i+1].inst)
		if next.NumRows() != prob.NumRows() || next.NumVars() != prob.NumVars() {
			continue
		}
		var basis lp.Basis
		if _, err := prob.SolveFrom(&basis); err != nil || !basis.Warm(prob) {
			continue
		}
		for r := 0; r < prob.NumRows(); r++ {
			prob.SetRHS(r, next.RHS(r))
		}
		t = time.Now()
		if sol, err := prob.SolveFrom(&basis); err == nil {
			p.obs("lp.warm_resolve_us", us(time.Since(t)))
			p.obs("lp.warm_pivots", float64(sol.Pivots))
		}
	}
}

// strided returns up to max indexes of [0, n), spread evenly and ordered so
// that any prefix is itself spread over the whole range.
func strided(n, max int) []int {
	if n <= max {
		max = n
	}
	idx := make([]int, 0, max)
	seen := map[int]bool{}
	for step := n; step >= 1 && len(idx) < max; step /= 2 {
		for i := step / 2; i < n && len(idx) < max; i += step {
			if !seen[i] {
				seen[i] = true
				idx = append(idx, i)
			}
		}
		if step == 1 {
			break
		}
	}
	return idx
}
