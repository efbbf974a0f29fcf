package ctrlplane

import "repro/internal/slice"

// SliceRequest is the tenant-facing request Φτ = {s, Δ, Λ, L} plus
// commercial terms, submitted to the slice manager.
type SliceRequest struct {
	Name string `json:"name"`
	// Tenant is the submitting tenant's identity, kept as the committed
	// slice's owner (admission.CommittedSlice.Tenant); empty means the
	// slice name.
	Tenant         string  `json:"tenant,omitempty"`
	Type           string  `json:"type"`            // "eMBB" | "mMTC" | "uRLLC"
	RateMbps       float64 `json:"rate_mbps"`       // Λ per radio site
	DelayMs        float64 `json:"delay_ms"`        // Δ
	DurationEpochs int     `json:"duration_epochs"` // L
	Reward         float64 `json:"reward"`
	PenaltyFactor  float64 `json:"penalty_factor"` // m, K = m·R
	BaselineCPU    float64 `json:"baseline_cpu"`   // aτ
	CPUPerMbps     float64 `json:"cpu_per_mbps"`   // bτ
}

// Template resolves the request against Table 1 defaults: zero-valued
// fields inherit the template of the declared type.
func (r SliceRequest) Template() (slice.Template, error) {
	ty, err := slice.ParseType(r.Type)
	if err != nil {
		return slice.Template{}, err
	}
	t := slice.Table1(ty)
	if r.RateMbps > 0 {
		t.RateMbps = r.RateMbps
	}
	if r.DelayMs > 0 {
		t.DelayBound = r.DelayMs / 1e3
	}
	if r.Reward > 0 {
		t.Reward = r.Reward
	}
	if r.BaselineCPU > 0 {
		t.Compute.BaselineCPU = r.BaselineCPU
	}
	if r.CPUPerMbps > 0 {
		t.Compute.CPUPerMbps = r.CPUPerMbps
	}
	return t, nil
}

// NSDescriptor is the TOSCA-flavoured network-service document the slice
// manager builds per request (Fig. 1): the chain of PNFs (BS and switch
// slices), the mobile-core VNFs, the rate-control middlebox and the
// tenant's vertical service.
type NSDescriptor struct {
	Name    string       `json:"name"`
	Request SliceRequest `json:"request"`
	VNFs    []VNFD       `json:"vnfs"`
	PNFs    []PNFD       `json:"pnfs"`
	VLinks  []VLinkD     `json:"virtual_links"`
}

// VNFD is a virtual network function descriptor.
type VNFD struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "vEPC" | "middlebox" | "vertical-service"
}

// PNFD is a physical network function slice (BS or switch share).
type PNFD struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "bs-slice" | "switch-slice"
}

// VLinkD chains two functions.
type VLinkD struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// BuildNSD renders the standard service chain of Fig. 1 for a request.
func BuildNSD(r SliceRequest) NSDescriptor {
	return NSDescriptor{
		Name:    r.Name,
		Request: r,
		VNFs: []VNFD{
			{Name: r.Name + "-vepc", Kind: "vEPC"},
			{Name: r.Name + "-mbox", Kind: "middlebox"},
			{Name: r.Name + "-vs", Kind: "vertical-service"},
		},
		PNFs: []PNFD{
			{Name: r.Name + "-ran", Kind: "bs-slice"},
			{Name: r.Name + "-tn", Kind: "switch-slice"},
		},
		VLinks: []VLinkD{
			{From: r.Name + "-ran", To: r.Name + "-tn"},
			{From: r.Name + "-tn", To: r.Name + "-vepc"},
			{From: r.Name + "-vepc", To: r.Name + "-mbox"},
			{From: r.Name + "-mbox", To: r.Name + "-vs"},
		},
	}
}

// EpochDoc is the one write a domain controller takes, at most twice per
// epoch: the round's programming (Set, one config per accepted slice, the
// ones that shrink first) and the teardown of what expired (Remove). The
// controller applies Set in order, then Remove.
type EpochDoc[C any] struct {
	Set    []C      `json:"set,omitempty"`
	Remove []string `json:"remove,omitempty"`
}

// RadioConfig programs one slice's PRB shares (Or-R southbound).
type RadioConfig struct {
	Slice    string    `json:"slice"`
	ShareMHz []float64 `json:"share_mhz"` // per BS
}

// FlowConfig programs one slice's transport paths and meters (Or-T).
type FlowConfig struct {
	Slice string     `json:"slice"`
	Rules []FlowSpec `json:"rules"`
}

// FlowSpec is one BS's path and meter.
type FlowSpec struct {
	LinkIDs  []int   `json:"link_ids"`
	RateMbps float64 `json:"rate_mbps"`
}

// StackConfig programs one slice's cloud stack (Or-C).
type StackConfig struct {
	Slice       string  `json:"slice"`
	CU          int     `json:"cu"`
	BaselineCPU float64 `json:"baseline_cpu"`
	CPUPerMbps  float64 `json:"cpu_per_mbps"`
	TotalMbps   float64 `json:"total_mbps"` // Σ per-BS reservations
}

// SliceStatus is the orchestrator's public view of one slice.
type SliceStatus struct {
	Name      string    `json:"name"`
	Type      string    `json:"type"`
	State     string    `json:"state"` // "pending" | "active" | "rejected" | "expired"
	CU        int       `json:"cu"`
	Reserved  []float64 `json:"reserved_mbps"` // per BS
	Remaining int       `json:"remaining_epochs"`
}

// EpochReport summarizes one decision round.
type EpochReport struct {
	Epoch       int           `json:"epoch"`
	Accepted    []string      `json:"accepted"`
	Rejected    []string      `json:"rejected"`
	Expired     []string      `json:"expired"`
	NetRevenue  float64       `json:"net_revenue"`  // expected, −Ψ
	DeficitCost float64       `json:"deficit_cost"` // big-M leasing cost
	Slices      []SliceStatus `json:"slices"`
}
