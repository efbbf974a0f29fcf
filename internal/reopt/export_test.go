package reopt

// RescaleTol is rescaleTol for the external test package, whose simTrace
// counts rescalings the way StepReport.Rescaled does.
const RescaleTol = rescaleTol

// Redeliver plays the last epoch's samples into the controller's store
// again: the monitoring pipeline's hand-off to a restarted process, whose
// next step settles and observes exactly that epoch.
func (w *World) Redeliver(c *Controller) {
	for _, sm := range w.last {
		c.cfg.Store.Add(sm)
	}
}
