package traffic

import (
	"math"
	"testing"
)

func TestGaussianStatistics(t *testing.T) {
	g := NewGaussian(50, 10, 1)
	n := 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := g.Sample(0, i)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean-50) > 0.5 {
		t.Errorf("mean = %v, want ≈50", mean)
	}
	if math.Abs(std-10) > 0.5 {
		t.Errorf("std = %v, want ≈10", std)
	}
}

func TestGaussianClipping(t *testing.T) {
	g := NewGaussian(5, 50, 2)
	clipped := 0
	for i := 0; i < 5000; i++ {
		v := g.Sample(0, i)
		if v < 0 {
			t.Fatalf("sample %v below the zero floor", v)
		}
		if v == 0 {
			clipped++
		}
	}
	if clipped == 0 {
		t.Error("σ = 10λ̄ never reached the zero floor")
	}
}

func TestConstant(t *testing.T) {
	c := Constant{MeanMbps: 10}
	for i := 0; i < 10; i++ {
		if c.Sample(i, i) != 10 {
			t.Fatal("mMTC traffic must be deterministic")
		}
	}
}

func TestDiurnalShape(t *testing.T) {
	d := NewDiurnal(10, 100, 24, 12, 0, 3)
	// Trough at t=0, crest at t=12.
	lo := d.Sample(0, 0)
	hi := d.Sample(12, 0)
	if !(hi > lo*5) {
		t.Errorf("diurnal crest %v not well above trough %v", hi, lo)
	}
	// Periodic: t and t+24 match when jitter is zero.
	if math.Abs(d.Sample(3, 0)-d.Sample(27, 0)) > 1e-9 {
		t.Error("diurnal process must repeat every period")
	}
}

func TestDiurnalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDiurnal(1, 2, 1, 12, 0, 1)
}

func TestDeterministicSeeding(t *testing.T) {
	a := NewGaussian(50, 10, 99)
	b := NewGaussian(50, 10, 99)
	for i := 0; i < 100; i++ {
		if a.Sample(0, i) != b.Sample(0, i) {
			t.Fatal("same seed must give same stream")
		}
	}
}
