package forecast

// Model names the currently selected model: "ses", "des", or
// "holt-winters". Selection is an internal concern; the regime-change
// tests pin the switching behavior through this name.
func (a *Adaptive) Model() string {
	switch a.active().(type) {
	case *HoltWinters:
		return "holt-winters"
	case *DES:
		return "des"
	}
	return "ses"
}
