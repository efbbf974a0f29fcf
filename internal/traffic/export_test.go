package traffic

import (
	"encoding/json"
	"fmt"
	"strings"
)

// EncodeTraceJSON renders the trace in the JSON format DecodeTrace reads.
func EncodeTraceJSON(tf *TraceFile) ([]byte, error) {
	if err := tf.validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(tf, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("traffic: encode trace: %w", err)
	}
	return append(data, '\n'), nil
}

// EncodeTraceCSV renders the samples one per line, the CSV form DecodeTrace
// reads (the cadence is not representable in CSV; it travels out of band).
func EncodeTraceCSV(tf *TraceFile) ([]byte, error) {
	if err := tf.validate(); err != nil {
		return nil, err
	}
	var b strings.Builder
	for _, v := range tf.Samples {
		fmt.Fprintf(&b, "%g\n", v)
	}
	return []byte(b.String()), nil
}
