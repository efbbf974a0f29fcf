package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// FuzzClusterFrameDecode pins the protocol's corruption contract on the
// decoder the wire runs: any byte soup fed to readFrame yields either a
// message or a clean error (io.EOF on empty input, io.ErrUnexpectedEOF on
// a torn one, ErrBadFrame otherwise) — never a panic, never an
// out-of-range read, never a claim to have consumed bytes it was not
// given — and never an allocation out of proportion to the input: a header
// may claim maxFrameBytes, but the reader allocates only as bytes arrive.
// Discovered by make fuzz-smoke.
func FuzzClusterFrameDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		frame, err := encodeFrame(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1]) // torn tail
		f.Add(flipByte(frame, 5))   // CRC damage
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(overLength(mustFrame(f, &Message{Type: MsgPing})))
	f.Add(rawFrame([]byte("not json at all")))
	claim := make([]byte, frameHeaderBytes)
	binary.LittleEndian.PutUint32(claim, maxFrameBytes)
	f.Add(claim) // a bare header claiming the cap

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msg, err := readFrame(r)
		runtime.ReadMemStats(&after)
		if a, limit := after.TotalAlloc-before.TotalAlloc, 4*uint64(len(data))+1<<20; a > limit {
			t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(data), a, limit)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if n := len(data) - r.Len(); n < frameHeaderBytes {
			t.Fatalf("decoded frame claims %d bytes of %d", n, len(data))
		}
		// Whatever decoded must survive a re-encode/decode cycle.
		frame, err := encodeFrame(&msg)
		if err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		if _, err := readFrame(bytes.NewReader(frame)); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
	})
}

func mustFrame(f *testing.F, m *Message) []byte {
	f.Helper()
	frame, err := encodeFrame(m)
	if err != nil {
		f.Fatal(err)
	}
	return frame
}
