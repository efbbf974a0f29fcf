package reopt

import (
	"repro/internal/monitor"
	"repro/internal/sim"
)

// RescaleTol is rescaleTol for the external test package, whose simTrace
// counts rescalings the way StepReport.Rescaled does.
const RescaleTol = rescaleTol

// CopyEpoch adds to dst every sample src holds for the epoch on the demand
// series of the scenario's slices at its BSs: the monitoring pipeline's
// hand-off of the last epoch from a dead process's store to its successor's,
// whose next step settles and observes exactly that epoch.
func CopyEpoch(dst, src *monitor.Store, cfg sim.Config, epoch int) {
	for _, sp := range cfg.Slices {
		for b := 0; b < cfg.Net.NumBS(); b++ {
			for _, sm := range src.ElementEpochSamples(sp.Name, monitor.LoadMetric, monitor.BSElement(b), epoch) {
				dst.Add(sm)
			}
		}
	}
}
