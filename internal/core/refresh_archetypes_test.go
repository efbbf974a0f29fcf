package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/slice"
)

// TestRefreshMatchesRowSetOnArchetypes runs the refresh check on one
// instance per scenario archetype at CI size (at most four tenants): the
// archetype's topology, path budget and slice classes — and so its compute
// models and row structure — with every compiled slice offered at once.
func TestRefreshMatchesRowSetOnArchetypes(t *testing.T) {
	for _, spec := range scenario.Archetypes() {
		spec.Tenants = min(spec.Tenants, 4)
		cfg, err := spec.Compile(11)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		tenants := make([]core.TenantSpec, len(cfg.Slices))
		for i, sp := range cfg.Slices {
			sla := slice.SLA{Template: sp.Template, MeanMbps: sp.MeanMbps, Duration: sp.Duration}.
				WithPenaltyFactor(sp.PenaltyFactor)
			tenants[i] = core.TenantSpec{
				Name: sp.Name, SLA: sla,
				LambdaHat: 0.7 * sla.RateMbps, Sigma: 0.3, RemainingEpochs: sp.Duration,
			}
		}
		core.CheckRefresh(t, spec.Name, &core.Instance{
			Net: cfg.Net, Paths: cfg.Net.Paths(spec.KPaths), Tenants: tenants,
			Overbook: true, BigM: core.DefaultBigM,
		})
	}
}
