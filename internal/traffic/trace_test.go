package traffic

import (
	"math"
	"testing"
)

func TestTraceReplayAndRotation(t *testing.T) {
	samples := []float64{10, 20, 30, 40}
	tr := NewTrace(samples, 2, 0)
	// Epoch-major walk: (t,θ) -> t*κ+θ.
	got := []float64{tr.Sample(0, 0), tr.Sample(0, 1), tr.Sample(1, 0), tr.Sample(1, 1)}
	for i, want := range samples {
		if got[i] != want {
			t.Fatalf("sample %d = %v, want %v", i, got[i], want)
		}
	}
	// Wraps past the end.
	if v := tr.Sample(2, 0); v != 10 {
		t.Errorf("wrapped sample = %v, want 10", v)
	}
	// Rotation shifts the start point; negative offsets normalize.
	if v := NewTrace(samples, 2, 1).Sample(0, 0); v != 20 {
		t.Errorf("offset 1 first sample = %v, want 20", v)
	}
	if v := NewTrace(samples, 2, -1).Sample(0, 0); v != 40 {
		t.Errorf("offset -1 first sample = %v, want 40", v)
	}
	// Determinism: same arguments, same value, always.
	if tr.Sample(7, 1) != tr.Sample(7, 1) {
		t.Error("Sample is not deterministic")
	}
}

func TestNewTracePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTrace(nil) did not panic")
		}
	}()
	NewTrace(nil, 4, 0)
}

func TestDecodeTraceJSON(t *testing.T) {
	tf, err := DecodeTrace([]byte(`{"samples_per_epoch": 3, "samples": [1, 2.5, 3]}`))
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	if tf.SamplesPerEpoch != 3 || len(tf.Samples) != 3 || tf.Samples[1] != 2.5 {
		t.Fatalf("decoded %+v", tf)
	}
	// Round-trips through the JSON encoder.
	data, err := EncodeTraceJSON(tf)
	if err != nil {
		t.Fatalf("EncodeTraceJSON: %v", err)
	}
	back, err := DecodeTrace(data)
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if back.SamplesPerEpoch != tf.SamplesPerEpoch || len(back.Samples) != len(tf.Samples) {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestDecodeTraceCSV(t *testing.T) {
	csv := "# recorded demand, Mb/s\n10, 20\n30\n40\t50\n"
	tf, err := DecodeTrace([]byte(csv))
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	want := []float64{10, 20, 30, 40, 50}
	if len(tf.Samples) != len(want) {
		t.Fatalf("decoded %d samples, want %d", len(tf.Samples), len(want))
	}
	for i := range want {
		if tf.Samples[i] != want[i] {
			t.Fatalf("sample %d = %v, want %v", i, tf.Samples[i], want[i])
		}
	}
	// CSV round trip.
	data, err := EncodeTraceCSV(tf)
	if err != nil {
		t.Fatalf("EncodeTraceCSV: %v", err)
	}
	back, err := DecodeTrace(data)
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if len(back.Samples) != len(want) {
		t.Fatalf("csv round trip lost samples: %d", len(back.Samples))
	}
}

func TestDecodeTraceRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"whitespace", "  \n\t"},
		{"json no samples", `{"samples_per_epoch": 2, "samples": []}`},
		{"json unknown field", `{"samples": [1], "bogus": 1}`},
		{"json negative cadence", `{"samples_per_epoch": -1, "samples": [1]}`},
		{"json negative sample", `{"samples": [1, -2]}`},
		{"json malformed", `{"samples": [1,`},
		{"csv not a number", "1, banana, 3"},
		{"csv negative", "1\n-2\n"},
		{"csv inf", "1e400\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeTrace([]byte(tc.in)); err == nil {
				t.Fatalf("DecodeTrace(%q) accepted invalid input", tc.in)
			}
		})
	}
}

// FuzzTraceDecode throws arbitrary bytes at the trace codec: it must never
// panic, and anything it accepts must satisfy the documented invariants and
// survive a JSON re-encode round trip.
func FuzzTraceDecode(f *testing.F) {
	f.Add([]byte(`{"samples_per_epoch": 2, "samples": [1, 2, 3]}`))
	f.Add([]byte("10, 20\n30\n"))
	f.Add([]byte("# comment\n1\n"))
	f.Add([]byte(""))
	f.Add([]byte(`{"samples": [1e308]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tf, err := DecodeTrace(data)
		if err != nil {
			return
		}
		if len(tf.Samples) == 0 {
			t.Fatal("accepted a trace with no samples")
		}
		for i, v := range tf.Samples {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("accepted non-finite/negative sample %d: %v", i, v)
			}
		}
		enc, err := EncodeTraceJSON(tf)
		if err != nil {
			t.Fatalf("accepted trace failed to encode: %v", err)
		}
		back, err := DecodeTrace(enc)
		if err != nil {
			t.Fatalf("re-decode of encoded trace failed: %v\n%s", err, enc)
		}
		if len(back.Samples) != len(tf.Samples) || back.SamplesPerEpoch != tf.SamplesPerEpoch {
			t.Fatal("JSON round trip changed the trace")
		}
		// The accepted trace must construct a working generator.
		tr := NewTrace(tf.Samples, tf.SamplesPerEpoch, 0)
		if v := tr.Sample(0, 0); v != tf.Samples[0] {
			t.Fatalf("Sample(0,0) = %v, want first sample %v", v, tf.Samples[0])
		}
	})
}
