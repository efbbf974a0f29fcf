package slice

import "fmt"

// Type is one of the 3GPP slice categories of Table 1.
type Type int

// Slice types from Table 1.
const (
	EMBB  Type = iota // enhanced/extreme Mobile BroadBand
	MMTC              // massive Machine-Type Communications
	URLLC             // ultra-Reliable Low-Latency Communications
)

// String names the slice type the way the paper does.
func (t Type) String() string {
	switch t {
	case EMBB:
		return "eMBB"
	case MMTC:
		return "mMTC"
	case URLLC:
		return "uRLLC"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// ParseType is the inverse of String: it resolves a Table 1 type name.
func ParseType(name string) (Type, error) {
	for _, t := range []Type{EMBB, MMTC, URLLC} {
		if t.String() == name {
			return t, nil
		}
	}
	return 0, fmt.Errorf("slice: unknown type %q", name)
}

// ComputeModel is the paper's sτ = {aτ, bτ}: the linear map from network
// load (Mb/s) arriving at the tenant's vertical service to CPU cores
// (constraint (2)). BaselineCPU (aτ) covers the VS operating system and
// per-user state; CPUPerMbps (bτ) is per-bit processing.
type ComputeModel struct {
	BaselineCPU float64 // aτ, cores
	CPUPerMbps  float64 // bτ, cores per Mb/s
}

// Cores returns the CPU requirement for the given served bitrate.
func (m ComputeModel) Cores(mbps float64) float64 {
	return m.BaselineCPU + m.CPUPerMbps*mbps
}

// Template is a slice blueprint: Table 1's per-type parameters. Reward is
// expressed in the paper's monetary units; mMTC and uRLLC rewards carry a
// compute-dependent term (1+b) and (2+b) reflecting their heavier backends.
type Template struct {
	Type       Type
	Reward     float64      // R, monetary units per BS-path per epoch
	DelayBound float64      // Δ, seconds
	RateMbps   float64      // Λ, requested bitrate per radio site, Mb/s
	StdMbps    float64      // σ of the actual traffic; 0 = deterministic
	Compute    ComputeModel // sτ
}

// Table1 returns the end-to-end network slice templates of Table 1.
// σ for eMBB and uRLLC is "variable" in the paper and is set per scenario
// with WithStd; mMTC is deterministic (σ = 0).
func Table1(t Type) Template {
	switch t {
	case EMBB:
		return Template{Type: EMBB, Reward: 1, DelayBound: 30e-3, RateMbps: 50,
			Compute: ComputeModel{BaselineCPU: 0, CPUPerMbps: 0}}
	case MMTC:
		b := 2.0
		return Template{Type: MMTC, Reward: 1 + b, DelayBound: 30e-3, RateMbps: 10,
			StdMbps: 0, Compute: ComputeModel{BaselineCPU: 0, CPUPerMbps: b}}
	case URLLC:
		b := 0.2
		return Template{Type: URLLC, Reward: 2 + b, DelayBound: 5e-3, RateMbps: 25,
			Compute: ComputeModel{BaselineCPU: 0, CPUPerMbps: b}}
	}
	panic(fmt.Sprintf("slice: unknown type %d", t))
}

// WithStd returns a copy of the template with the traffic standard
// deviation set (the "variable σ" column of Table 1).
func (t Template) WithStd(std float64) Template {
	t.StdMbps = std
	return t
}

// SLA is the paper's Φτ: the agreement formed when a slice request is
// accepted, valid for Duration decision epochs.
type SLA struct {
	Template
	MeanMbps float64 // λ̄, the true mean the tenant's traffic will exhibit
	Duration int     // Lτ, epochs
	Penalty  float64 // Kτ, monetary units charged per SLA violation
}

// PenaltyFactor derives K = m·R/Λ·Λ = m·R per full violation; the paper
// parameterizes K = (m/Λ)·R so that failing to serve a fraction f of the
// SLA costs f·m·R. WithPenaltyFactor sets Penalty = m·R.
func (s SLA) WithPenaltyFactor(m float64) SLA {
	s.Penalty = m * s.Reward
	return s
}
