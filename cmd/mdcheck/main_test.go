package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestStaleSymbols(t *testing.T) {
	idents := map[string]map[string]bool{
		"lp":        {"Basis": true, "SolveFrom": true, "ftranBatch": true},
		"admission": {"Config": true, "QueueDepth": true},
	}
	cases := []struct {
		name, doc string
		want      []string
	}{
		{"live symbol", "`lp.Basis`", nil},
		{"live method", "see `lp.Basis.SolveFrom` here", nil},
		{"deleted method", "`lp.Basis.FtranBatch` pushes", []string{"lp.Basis.FtranBatch"}},
		{"deleted field", "`admission.Config.TenantCap`", []string{"admission.Config.TenantCap"}},
		{"only the dotted chain is read", "`x := admission.Config{TenantCap: 1}`", nil},
		{"call in a span", "`lp.Presolve(p)`", []string{"lp.Presolve"}},
		{"unexported name is not a symbol", "`lp.ftranBatch`", nil},
		{"metric name", "`admission.queue_wait_ms_p50`", nil},
		{"file name", "`monitor.go` and `internal/lp/lp.Basis`", nil},
		{"package outside internal", "`strings.Builder` and `sim.Run`", nil},
		{"outside backticks", "lp.Basis.FtranBatch", nil},
		{"fenced block", "```\nlp.Basis.FtranBatch()\n`lp.Gone`\n```\n", nil},
		{"each mention", "`lp.A` and `lp.B`", []string{"lp.A", "lp.B"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := staleSymbols(tc.doc, idents); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("staleSymbols(%q) = %q, want %q", tc.doc, got, tc.want)
			}
		})
	}
}

// TestPackageIdents reads identifiers, not prose: a name that survives only
// in a comment, a string or a test file does not count as present.
func TestPackageIdents(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(dir, "lp"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "lp", name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("lp.go", "package lp\n\n// FtranBatch is gone.\ntype Basis struct{}\n\nvar s = \"VarName\"\n")
	write("lp_test.go", "package lp\n\nfunc TestOnly() {}\n")
	idents, err := packageIdents(dir)
	if err != nil {
		t.Fatal(err)
	}
	lp := idents["lp"]
	if !lp["Basis"] || !lp["lp"] {
		t.Errorf("declared identifiers missing: %v", lp)
	}
	for _, name := range []string{"FtranBatch", "VarName", "TestOnly"} {
		if lp[name] {
			t.Errorf("%s counted as present from a comment, string or test file", name)
		}
	}
}
