package main

import (
	"math"
	"testing"
)

// TestNormalisation pins the arithmetic of the speed index on a hand-made
// pass: two units, the box at reference speed around the first and half as
// fast around the second, one sample booked outside any unit.
func TestNormalisation(t *testing.T) {
	nom, slow := refNominalUs, 2*refNominalUs
	p := &pass{
		w:       &workload{segments: 1},
		unitAt:  []float64{1, 3}, // the second unit took twice the wall …
		unitDec: []int{100, 200}, // … for the same decisions
		refUs:   [][]float64{{nom, nom, nom}, {nom}, {slow, slow, slow}},
	}
	for u, want := range []float64{1, 2, 1} { // unit 0, unit 1, outside any unit
		if got := p.speedOf(u); got != want {
			t.Errorf("unit %d: index %v, want %v", u, got, want)
		}
	}
	got := p.normalise([]float64{10, 10, 10}, []int{0, 1, 2})
	if want := []float64{10, 5, 10}; got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("normalise: %v, want %v", got, want)
	}
	// 200 decisions over 1 s + (2 s ÷ 2) of reference-box time.
	if r := p.rate(); math.Abs(r-100) > 1e-9 {
		t.Errorf("rate %v, want 100", r)
	}
	p.rateUnits = 1
	if r := p.rate(); math.Abs(r-100) > 1e-9 {
		t.Errorf("rate over the first unit %v, want 100", r)
	}
}

func TestSegQuantile(t *testing.T) {
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = 1
	}
	for i := 100; i < 200; i++ {
		xs[i] = 9 // one slow stretch in three
	}
	if got := segQuantile(xs, 0.5, 1); got != 1 {
		t.Errorf("whole-sample median %v, want 1", got)
	}
	if got := quantile(xs, 0.9); got != 9 {
		t.Errorf("whole-sample p90 %v, want 9", got)
	}
	if got := segQuantile(xs, 0.9, 3); got != 1 {
		t.Errorf("p90 as the median over three stretches %v, want 1", got)
	}
	if got := segQuantile(xs[:30], 0.9, 3); got != quantile(xs[:30], 0.9) {
		t.Errorf("a sample too small to cut must fall back to the plain quantile, got %v", got)
	}
}
