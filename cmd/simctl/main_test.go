package main

import (
	"strings"
	"testing"
)

// TestCheckFull pins where -full is refused: fig5, fig6 and all would run
// their sweeps at 4 BSs while claiming the published sizes.
func TestCheckFull(t *testing.T) {
	for _, tc := range []struct {
		experiment string
		full       bool
		refused    bool
	}{
		{"fig4", true, false},
		{"fig5", true, true},
		{"fig6", true, true},
		{"all", true, true},
		{"fig5", false, false},
		{"all", false, false},
	} {
		err := checkFull(tc.experiment, tc.full)
		if (err != nil) != tc.refused {
			t.Errorf("checkFull(%q, %v) = %v, want refused=%v", tc.experiment, tc.full, err, tc.refused)
		}
		if err != nil && !strings.Contains(err.Error(), "ROADMAP item 14") {
			t.Errorf("checkFull(%q) refusal %q does not name ROADMAP item 14", tc.experiment, err)
		}
	}
}
