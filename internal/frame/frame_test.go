package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

const testCap = 64

func mustEncode(t *testing.T, payload []byte) []byte {
	t.Helper()
	f, err := Encode(payload, testCap)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDecode pins the buffer contract: a whole frame, io.EOF on an empty
// buffer, ErrCorrupt for everything else — under the caller's cap.
func TestDecode(t *testing.T) {
	whole := mustEncode(t, []byte("payload"))
	flipped := append([]byte(nil), whole...)
	flipped[HeaderBytes+1] ^= 0xff
	over := append([]byte(nil), whole...)
	binary.LittleEndian.PutUint32(over[0:4], testCap+1)

	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"whole frame", whole, nil},
		{"whole frame with a successor", append(append([]byte(nil), whole...), whole...), nil},
		{"empty payload", mustEncode(t, nil), nil},
		{"empty buffer", nil, io.EOF},
		{"short header", whole[:HeaderBytes-1], ErrCorrupt},
		{"payload cut short", whole[:len(whole)-1], ErrCorrupt},
		{"flipped payload byte", flipped, ErrCorrupt},
		{"length above the cap", over, ErrCorrupt},
	}
	for _, tc := range cases {
		payload, n, err := Decode(tc.buf, testCap)
		if err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
			continue
		}
		if err == nil && (n != HeaderBytes+len(payload) || !bytes.Equal(tc.buf[HeaderBytes:n], payload)) {
			t.Errorf("%s: decoded %d bytes, payload %q", tc.name, n, payload)
		}
	}
	if _, err := Encode(make([]byte, testCap+1), testCap); err == nil {
		t.Error("Encode accepted a payload above the cap")
	}
}

// TestRead pins the stream contract: frames come back one at a time
// without over-reading, a clean end is io.EOF, a cut inside a frame
// io.ErrUnexpectedEOF, a bad length or CRC ErrCorrupt.
func TestRead(t *testing.T) {
	a, b := mustEncode(t, []byte("first")), mustEncode(t, []byte("second"))
	r := bytes.NewReader(append(append([]byte(nil), a...), b...))
	for _, want := range []string{"first", "second"} {
		got, err := Read(r, testCap)
		if err != nil || string(got) != want {
			t.Fatalf("Read = %q, %v; want %q", got, err, want)
		}
	}
	if _, err := Read(r, testCap); err != io.EOF {
		t.Fatalf("clean end: %v, want io.EOF", err)
	}
	for cut := 1; cut < len(a); cut++ {
		if _, err := Read(bytes.NewReader(a[:cut]), testCap); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at byte %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	bad := append([]byte(nil), a...)
	bad[len(bad)-1] ^= 0xff
	if _, err := Read(bytes.NewReader(bad), testCap); err != ErrCorrupt {
		t.Fatalf("flipped byte: %v, want ErrCorrupt", err)
	}
	if _, err := Read(bytes.NewReader(a), 2); err != ErrCorrupt {
		t.Fatalf("length above the cap: %v, want ErrCorrupt", err)
	}
}
