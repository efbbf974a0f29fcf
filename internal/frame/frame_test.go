package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
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

// TestReadAllocatesAsBytesArrive: a header may claim up to the caller's cap,
// but Read allocates only as the payload arrives, so a bare 8-byte header
// claiming 64 MiB costs readChunk and a cut payload at most about four times
// what came. A whole frame above readChunk still reads back intact.
func TestReadAllocatesAsBytesArrive(t *testing.T) {
	const claim = 64 << 20
	for _, arrived := range []int{0, 1000, 200_000} {
		data := make([]byte, HeaderBytes+arrived)
		binary.LittleEndian.PutUint32(data[0:4], claim)
		var err error
		got := allocated(func() { _, err = Read(bytes.NewReader(data), claim) })
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("64 MiB header, %d payload bytes: %v, want io.ErrUnexpectedEOF", arrived, err)
		}
		if limit := uint64(4*len(data) + readChunk + 4096); got > limit {
			t.Fatalf("64 MiB header, %d payload bytes: Read allocated %d bytes, want at most %d", arrived, got, limit)
		}
	}
	payload := make([]byte, 3*readChunk+5)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	f, err := Encode(payload, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Read(bytes.NewReader(f), len(payload)); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("frame of %d bytes: read back %d bytes, %v", len(payload), len(got), err)
	}
}

// allocated reports the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
