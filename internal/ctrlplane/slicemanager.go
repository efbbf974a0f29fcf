package ctrlplane

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// SliceManager is the tenant-facing web app at the top of the control
// hierarchy (§2.2.1): it validates slice requests Φτ, renders each into a
// TOSCA-like NS descriptor, and forwards it to the E2E orchestrator over
// the SMan-Or REST interface. Like the domain controllers it is stateless
// with respect to slice lifecycle — the descriptor cache below is a pure
// convenience view and can be lost at any time.
type SliceManager struct {
	orchAddr string
	client   *http.Client

	mu   sync.Mutex
	nsds map[string]NSDescriptor
}

// NewSliceManager returns a manager forwarding to the orchestrator at
// orchAddr (e.g. "http://127.0.0.1:8080").
func NewSliceManager(orchAddr string) *SliceManager {
	return &SliceManager{
		orchAddr: orchAddr,
		client:   &http.Client{Timeout: 10 * time.Second},
		nsds:     map[string]NSDescriptor{},
	}
}

// Handler exposes the tenant-facing REST surface.
func (m *SliceManager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /requests", func(w http.ResponseWriter, r *http.Request) {
		var req SliceRequest
		if err := decodeBody(w, r, &req); err != nil {
			httpBodyError(w, err)
			return
		}
		if req.Name == "" {
			httpError(w, http.StatusBadRequest, fmt.Errorf("ctrlplane: slice request needs a name"))
			return
		}
		if _, err := req.Template(); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		nsd := BuildNSD(req)

		// Forward to the orchestrator.
		if err := call(m.client, http.MethodPost, m.orchAddr+"/requests", nsd, nil); err != nil {
			var refused *statusError
			if errors.As(err, &refused) {
				httpError(w, refused.code, fmt.Errorf("ctrlplane: orchestrator: %s", refused.msg))
				return
			}
			httpError(w, http.StatusBadGateway, fmt.Errorf("ctrlplane: orchestrator unreachable: %w", err))
			return
		}
		m.mu.Lock()
		m.nsds[req.Name] = nsd
		m.mu.Unlock()
		writeJSON(w, http.StatusAccepted, nsd)
	})
	mux.HandleFunc("GET /nsd/{name}", func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		nsd, ok := m.nsds[r.PathValue("name")]
		m.mu.Unlock()
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("ctrlplane: no NS descriptor for %q", r.PathValue("name")))
			return
		}
		writeJSON(w, http.StatusOK, nsd)
	})
	mux.HandleFunc("GET /slices", func(w http.ResponseWriter, r *http.Request) {
		var sts []SliceStatus
		if err := call(m.client, http.MethodGet, m.orchAddr+"/slices", nil, &sts); err != nil {
			httpError(w, http.StatusBadGateway, err)
			return
		}
		writeJSON(w, http.StatusOK, sts)
	})
	return mux
}
