package ctrlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/dataplane"
)

// The domain controllers are stateless HTTP façades over the data plane
// (§2.2.3): every bit of slice state lives in the orchestrator, so a
// controller can be restarted at will — the paper's consistency argument.

// writeJSON is the single response helper all services share.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best-effort response
}

// httpError reports an error as {"error": "..."} with the given status.
func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// httpBodyError maps a decodeBody failure onto the right status: body-size
// overruns are 413 (the client must truncate, not fix), everything else is
// a plain 400.
func httpBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	httpError(w, http.StatusBadRequest, err)
}

// maxBodyBytes caps every JSON request body: no control-plane document —
// slice request, NS descriptor, domain programming — legitimately
// approaches 1 MiB, and an unbounded read is an easy memory DoS.
const maxBodyBytes = 1 << 20

// decodeBody parses a JSON request body into v, strictly: bodies are
// length-capped via http.MaxBytesReader (the writer is needed so the
// connection is also closed on overrun), unknown fields are rejected, and
// trailing garbage after the document fails the request.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) error {
	defer r.Body.Close()
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("ctrlplane: bad request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("ctrlplane: bad request body: trailing data after JSON document")
	}
	return nil
}

// statusError is a peer's non-2xx answer: its status and {"error"} text.
type statusError struct {
	op   string // "POST http://…/shares"
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("ctrlplane: %s: %d %s (%s)", e.op, e.code, http.StatusText(e.code), e.msg)
}

// call is the one client-side exchange every service uses: marshal in (nil
// sends no body), send, read the answer to EOF, close, and decode a 2xx
// body into out (nil discards it); a non-2xx answer is a *statusError.
// Reading to EOF is what keeps the connection: net/http returns a
// connection to the idle pool only when its response body was consumed, and
// closes it otherwise — so a caller that merely closes the body pays a
// fresh dial, accept and server goroutine on its next call.
func call(c *http.Client, method, url string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("ctrlplane: %s %s: reading answer: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		var e map[string]string
		json.Unmarshal(data, &e) //nolint:errcheck // best effort: the text is for the operator
		return &statusError{op: method + " " + url, code: resp.StatusCode, msg: e["error"]}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// epochHandler serves a controller's one write route: decode the epoch
// document, apply its set items in document order, then its removals. An
// item that fails its check is rolled back by set and stops the document
// with that status; the items before it stay applied (the orchestrator
// re-sends every reservation next epoch), the rest are not attempted.
func epochHandler[C any](set func(C) (int, error), remove func(string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var doc EpochDoc[C]
		if err := decodeBody(w, r, &doc); err != nil {
			httpBodyError(w, err)
			return
		}
		for _, cfg := range doc.Set {
			if status, err := set(cfg); err != nil {
				httpError(w, status, err)
				return
			}
		}
		for _, name := range doc.Remove {
			remove(name)
		}
		writeJSON(w, http.StatusOK, map[string]int{"set": len(doc.Set), "removed": len(doc.Remove)})
	}
}

// RANController translates radio share configs into per-BS scheduler
// programming (the paper's proprietary small-cell interface).
type RANController struct {
	dp *dataplane.Emulator
}

// NewRANController wraps the data plane.
func NewRANController(dp *dataplane.Emulator) *RANController { return &RANController{dp: dp} }

// Handler exposes the controller's REST surface.
func (c *RANController) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /shares", epochHandler(func(cfg RadioConfig) (int, error) {
		if len(cfg.ShareMHz) != len(c.dp.Radios) {
			return http.StatusBadRequest,
				fmt.Errorf("ctrlplane: slice %s: %d shares for %d BSs", cfg.Slice, len(cfg.ShareMHz), len(c.dp.Radios))
		}
		for b, mhz := range cfg.ShareMHz {
			if err := c.dp.Radios[b].SetShare(cfg.Slice, mhz); err != nil {
				for bb := 0; bb < b; bb++ {
					c.dp.Radios[bb].SetShare(cfg.Slice, 0) //nolint:errcheck // rollback
				}
				return http.StatusConflict, fmt.Errorf("ctrlplane: slice %s at BS %d: %w", cfg.Slice, b, err)
			}
		}
		return 0, nil
	}, func(sl string) {
		for _, rs := range c.dp.Radios {
			rs.SetShare(sl, 0) //nolint:errcheck // removal never fails
		}
	}))
	return mux
}

// TransportController translates flow configs into fabric rules — the role
// Floodlight plays in the paper, driven by OpenFlow instructions.
type TransportController struct {
	dp *dataplane.Emulator
}

// NewTransportController wraps the data plane.
func NewTransportController(dp *dataplane.Emulator) *TransportController {
	return &TransportController{dp: dp}
}

// Handler exposes the controller's REST surface.
func (c *TransportController) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /flows", epochHandler(func(cfg FlowConfig) (int, error) {
		rules := make([]dataplane.FlowRule, len(cfg.Rules))
		for i, fs := range cfg.Rules {
			rules[i] = dataplane.FlowRule{Slice: cfg.Slice, LinkIDs: fs.LinkIDs, RateMbps: fs.RateMbps}
		}
		if err := c.dp.Fabric.Install(cfg.Slice, rules); err != nil {
			return http.StatusConflict, fmt.Errorf("ctrlplane: slice %s: %w", cfg.Slice, err)
		}
		return 0, nil
	}, c.dp.Fabric.Remove))
	return mux
}

// CloudController translates stack configs into CU deployments — the Heat
// template + Keystone + CPU-pinning path of §2.2.3.
type CloudController struct {
	dp *dataplane.Emulator
}

// NewCloudController wraps the data plane.
func NewCloudController(dp *dataplane.Emulator) *CloudController { return &CloudController{dp: dp} }

// Handler exposes the controller's REST surface.
func (c *CloudController) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /stacks", epochHandler(func(cfg StackConfig) (int, error) {
		if cfg.CU < 0 || cfg.CU >= len(c.dp.CUs) {
			return http.StatusBadRequest, fmt.Errorf("ctrlplane: slice %s: no CU %d", cfg.Slice, cfg.CU)
		}
		// CPU pinning: the pin covers the stack's worst case at the
		// reserved bitrate (§2.2.3).
		st := dataplane.Stack{Slice: cfg.Slice, PinnedCores: cfg.BaselineCPU + cfg.CPUPerMbps*cfg.TotalMbps}
		// A slice migrating between CUs must not leave a stale stack; the
		// orchestrator pins CUs for a slice's lifetime, but remove
		// defensively from every other CU first.
		for i, cu := range c.dp.CUs {
			if i != cfg.CU {
				cu.Destroy(cfg.Slice)
			}
		}
		if err := c.dp.CUs[cfg.CU].Deploy(st); err != nil {
			return http.StatusConflict, fmt.Errorf("ctrlplane: slice %s on CU %d: %w", cfg.Slice, cfg.CU, err)
		}
		return 0, nil
	}, func(sl string) {
		for _, cu := range c.dp.CUs {
			cu.Destroy(sl)
		}
	}))
	return mux
}
