package slice

import (
	"math"
	"testing"
)

// TestTable1 pins the exact values of the paper's Table 1.
func TestTable1(t *testing.T) {
	e := Table1(EMBB)
	if e.Reward != 1 || e.DelayBound != 30e-3 || e.RateMbps != 50 ||
		e.Compute.BaselineCPU != 0 || e.Compute.CPUPerMbps != 0 {
		t.Errorf("eMBB template wrong: %+v", e)
	}
	m := Table1(MMTC)
	if m.Reward != 3 || m.DelayBound != 30e-3 || m.RateMbps != 10 ||
		m.StdMbps != 0 || m.Compute.CPUPerMbps != 2 {
		t.Errorf("mMTC template wrong: %+v", m)
	}
	u := Table1(URLLC)
	if u.Reward != 2.2 || u.DelayBound != 5e-3 || u.RateMbps != 25 ||
		u.Compute.CPUPerMbps != 0.2 {
		t.Errorf("uRLLC template wrong: %+v", u)
	}
}

// TestComputeModel checks the linear load→CPU map and the paper's sizing
// argument: one mMTC tenant at max load needs 20 cores per BS, which is
// exactly the edge CU's per-BS budget.
func TestComputeModel(t *testing.T) {
	m := Table1(MMTC)
	if got := m.Compute.Cores(m.RateMbps); got != 20 {
		t.Errorf("mMTC at max load = %v cores, want 20", got)
	}
	u := Table1(URLLC)
	if got := u.Compute.Cores(25); math.Abs(got-5) > 1e-12 {
		t.Errorf("uRLLC at max load = %v cores, want 5", got)
	}
	cm := ComputeModel{BaselineCPU: 1.5, CPUPerMbps: 0.5}
	if cm.Cores(10) != 6.5 {
		t.Error("baseline not added")
	}
}

func TestWithStd(t *testing.T) {
	e := Table1(EMBB).WithStd(12.5)
	if e.StdMbps != 12.5 {
		t.Error("WithStd failed")
	}
	if Table1(EMBB).StdMbps != 0 {
		t.Error("WithStd mutated the base template")
	}
}

func TestPenaltyFactor(t *testing.T) {
	s := SLA{Template: Table1(URLLC)}.WithPenaltyFactor(4)
	if math.Abs(s.Penalty-4*2.2) > 1e-12 {
		t.Errorf("penalty = %v, want %v", s.Penalty, 4*2.2)
	}
}

func TestTypeString(t *testing.T) {
	if EMBB.String() != "eMBB" || MMTC.String() != "mMTC" || URLLC.String() != "uRLLC" {
		t.Error("type strings wrong")
	}
	if Type(9).String() == "" {
		t.Error("unknown type must print")
	}
	for _, ty := range []Type{EMBB, MMTC, URLLC} {
		if got, err := ParseType(ty.String()); err != nil || got != ty {
			t.Errorf("ParseType(%q) = %v, %v; want %v", ty.String(), got, err, ty)
		}
	}
	for _, name := range []string{"embb", "6G", "", "Type(9)"} {
		if _, err := ParseType(name); err == nil {
			t.Errorf("ParseType(%q) resolved", name)
		}
	}
}

func TestTable1PanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown type")
		}
	}()
	Table1(Type(42))
}
