package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/admission"
	"repro/internal/frame"
	"repro/internal/reopt"
	"repro/internal/topology"
	"repro/internal/yield"
)

// Record kinds, one per logged step input. See the package comment for the
// full contract of each.
const (
	KindRound     = "round"
	KindForecasts = "forecasts"
	KindAdvance   = "advance"
	KindObserve   = "observe"
	KindSettle    = "settle"
	// KindTopology records capacity events folded into a domain's live
	// network. It is fsynced at append time (it changes every later
	// decision), so — unlike forecasts/advance — it is never held back by
	// recovery.
	KindTopology = "topology"
)

// Record is one logged step input. Kind selects which fields are
// meaningful; the rest stay zero and are omitted from the payload.
type Record struct {
	Kind   string `json:"kind"`
	Domain string `json:"domain"`

	// round: the decided batch, already in canonical sorted order, under
	// the domain's round sequence number.
	Seq   uint64              `json:"seq,omitempty"`
	Batch []admission.Request `json:"batch,omitempty"`

	// forecasts: the views pushed into the engine.
	Forecasts []admission.ForecastUpdate `json:"forecasts,omitempty"`

	// observe / settle: the step epoch, the full alive set and observed
	// peaks (observe), the booked yield entries (settle).
	Epoch   int                  `json:"epoch,omitempty"`
	Alive   []string             `json:"alive,omitempty"`
	Peaks   []reopt.ObservedPeak `json:"peaks,omitempty"`
	Entries []yield.Entry        `json:"entries,omitempty"`

	// topology: the capacity events applied (Domain is the target domain).
	Events []topology.Event `json:"events,omitempty"`
}

// ErrTorn marks a frame that cannot be decoded: short header, payload
// running past the buffer, CRC mismatch, oversized length, or a payload
// that is not a record. At the tail of the last segment this is the
// expected residue of a crash and is truncated away; anywhere else it is
// corruption.
var ErrTorn = errors.New("wal: torn or corrupt record")

// maxRecordBytes bounds a frame's payload; anything larger is a torn
// length field, not a real record (a round batch is a few KB).
const maxRecordBytes = 16 << 20

// encodeFrame renders one record as a frame (internal/frame) of its JSON.
func encodeFrame(rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("wal: encode record: %w", err)
	}
	out, err := frame.Encode(payload, maxRecordBytes)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return out, nil
}

// decodeFrame decodes the frame at the head of buf, returning the record
// and the frame's total size. io.EOF means buf is empty (a clean end);
// ErrTorn means the bytes present do not form a whole valid frame.
func decodeFrame(buf []byte) (Record, int, error) {
	payload, n, err := frame.Decode(buf, maxRecordBytes)
	if err == io.EOF {
		return Record{}, 0, io.EOF
	}
	var rec Record
	// A CRC-valid frame that is not a record can only come from a writer
	// bug or deliberate corruption; refuse it the same way.
	if err != nil || json.Unmarshal(payload, &rec) != nil {
		return Record{}, 0, ErrTorn
	}
	return rec, n, nil
}
