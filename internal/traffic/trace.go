package traffic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Trace replays a recorded load sequence: sample (t, θ) reads the flat
// sample list at position t·κ + θ + offset, wrapping around — so a short
// recording loops, and distinct offsets let many (slice, BS) pairs share
// one recording without sampling in lockstep. Replay is exact and draws no
// randomness, which makes trace-driven runs bit-reproducible by
// construction.
type Trace struct {
	Samples         []float64
	SamplesPerEpoch int
	Offset          int
}

// NewTrace returns a trace replayer over the recorded samples. Panics on an
// empty recording (mirroring the other constructors' contract violations);
// the declarative layers validate before construction.
func NewTrace(samples []float64, samplesPerEpoch, offset int) *Trace {
	if len(samples) == 0 {
		panic("traffic: trace needs at least one sample")
	}
	if samplesPerEpoch <= 0 {
		samplesPerEpoch = 1
	}
	offset %= len(samples)
	if offset < 0 {
		offset += len(samples)
	}
	return &Trace{Samples: samples, SamplesPerEpoch: samplesPerEpoch, Offset: offset}
}

// Sample implements Generator.
func (tr *Trace) Sample(t, theta int) float64 {
	idx := (t*tr.SamplesPerEpoch + theta + tr.Offset) % len(tr.Samples)
	if idx < 0 {
		idx += len(tr.Samples)
	}
	return tr.Samples[idx]
}

// TraceFile is the codec-facing form of a recorded demand trace: the flat
// Mb/s sample list plus the monitoring cadence it was captured at.
type TraceFile struct {
	// SamplesPerEpoch is the recording's κ; 0 lets the consumer impose its
	// own cadence.
	SamplesPerEpoch int `json:"samples_per_epoch,omitempty"`
	// Samples is the recorded load sequence in Mb/s, epoch-major.
	Samples []float64 `json:"samples"`
}

// maxTraceSamples bounds a decoded trace; anything larger is a corrupt or
// hostile file, not a real recording (a year of 5-minute samples is ~10^5).
const maxTraceSamples = 1 << 22

// DecodeTrace parses a recorded demand trace in either supported format:
// JSON ({"samples_per_epoch": κ, "samples": [...]}) when the payload leads
// with '{', otherwise CSV — one or more Mb/s values per line, comma- or
// whitespace-separated, '#' comments ignored. Every sample must be a
// finite, non-negative number.
func DecodeTrace(data []byte) (*TraceFile, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("traffic: empty trace")
	}
	var tf TraceFile
	if trimmed[0] == '{' {
		dec := json.NewDecoder(bytes.NewReader(trimmed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&tf); err != nil {
			return nil, fmt.Errorf("traffic: trace json: %w", err)
		}
	} else {
		for ln, line := range strings.Split(string(trimmed), "\n") {
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			for _, field := range strings.FieldsFunc(line, func(r rune) bool {
				return r == ',' || r == ' ' || r == '\t' || r == '\r' || r == ';'
			}) {
				v, err := strconv.ParseFloat(field, 64)
				if err != nil {
					return nil, fmt.Errorf("traffic: trace csv line %d: %q is not a number", ln+1, field)
				}
				tf.Samples = append(tf.Samples, v)
				if len(tf.Samples) > maxTraceSamples {
					return nil, fmt.Errorf("traffic: trace exceeds %d samples", maxTraceSamples)
				}
			}
		}
	}
	return &tf, tf.validate()
}

// validate enforces the invariants both codecs share.
func (tf *TraceFile) validate() error {
	if len(tf.Samples) == 0 {
		return fmt.Errorf("traffic: trace has no samples")
	}
	if len(tf.Samples) > maxTraceSamples {
		return fmt.Errorf("traffic: trace exceeds %d samples", maxTraceSamples)
	}
	if tf.SamplesPerEpoch < 0 {
		return fmt.Errorf("traffic: samples_per_epoch %d is negative", tf.SamplesPerEpoch)
	}
	for i, v := range tf.Samples {
		// NaN fails both comparisons' complement: v != v.
		if !(v >= 0) || v > 1e12 {
			return fmt.Errorf("traffic: trace sample %d (%v) is not a finite non-negative load", i, v)
		}
	}
	return nil
}
