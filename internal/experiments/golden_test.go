package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files with current output")

// goldenCompare pins rendered experiment output byte for byte. The paper
// artifacts are regenerated from deterministic seeded simulations, so any
// refactor of the experiment plumbing (scenario engine, solver sessions,
// sweep parallelism) that silently drifts a figure shows up as a diff here.
// Refresh intentionally with `go test ./internal/experiments -run Golden -update`.
func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenFig4(t *testing.T) {
	var buf bytes.Buffer
	PrintFig4(&buf, Fig4(8, 3, 5))
	goldenCompare(t, "fig4_small.golden", buf.Bytes())
}

func TestGoldenFig5(t *testing.T) {
	pts, err := Fig5(Fig5Config{
		Topologies: []string{"Romanian"},
		SliceTypes: []string{"eMBB", "mMTC"},
		Alphas:     []float64{0.2},
		SigmaFracs: []float64{0.25},
		Penalties:  []float64{1},
		Tenants:    4, NBS: 3, Epochs: 6, KPaths: 1,
		Algorithm: "direct", Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintFig5(&buf, pts)
	goldenCompare(t, "fig5_small.golden", buf.Bytes())
}

func TestGoldenFig6(t *testing.T) {
	pts, err := Fig6(Fig6Config{
		Topologies: []string{"Romanian"},
		Mixes:      [][2]string{{"eMBB", "mMTC"}},
		Betas:      []float64{0, 50},
		Tenants:    4, NBS: 3, Epochs: 6, KPaths: 1,
		Algorithm: "direct", Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintFig6(&buf, pts)
	goldenCompare(t, "fig6_small.golden", buf.Bytes())
}
