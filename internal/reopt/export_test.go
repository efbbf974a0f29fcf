package reopt

// RescaleTol is rescaleTol for the external test package, whose simTrace
// counts rescalings the way StepReport.Rescaled does.
const RescaleTol = rescaleTol
