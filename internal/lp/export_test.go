package lp

// FactorStats returns the counters accumulated on this Basis' workspace.
func (b *Basis) FactorStats() FactorStats {
	if b == nil || b.ws == nil {
		return FactorStats{}
	}
	return b.ws.stats
}
