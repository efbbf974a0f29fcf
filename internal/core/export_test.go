package core

// CheckRefresh exposes checkRefresh to the package's external tests, which
// may import packages (internal/scenario) that import this one.
var CheckRefresh = checkRefresh
