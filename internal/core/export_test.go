package core

// CheckRefresh exposes checkRefresh to the package's external tests, which
// may import packages (internal/scenario) that import this one.
var CheckRefresh = checkRefresh

// CarriedCuts reports the current cut-pool size.
func (s *BendersSession) CarriedCuts() int { return len(s.duals) }
