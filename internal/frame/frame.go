package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// HeaderBytes is the fixed prefix: uint32 payload length + uint32 CRC-32C.
const HeaderBytes = 8

// ErrCorrupt marks bytes that do not form a whole valid frame: a short
// header, a length above the caller's cap, a payload running past the
// buffer, or a CRC mismatch.
var ErrCorrupt = errors.New("frame: torn or corrupt frame")

// castagnoli is the CRC-32C table (the polynomial with hardware support on
// both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode renders payload as one frame. A payload above max is refused: the
// reader on the other side would reject its length field.
func Encode(payload []byte, max int) ([]byte, error) {
	if len(payload) > max {
		return nil, fmt.Errorf("frame: payload %d bytes exceeds cap %d", len(payload), max)
	}
	out := make([]byte, HeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, castagnoli))
	copy(out[HeaderBytes:], payload)
	return out, nil
}

// Decode returns the payload of the frame at the head of buf (aliasing buf)
// and the frame's total size. io.EOF means buf is empty — a clean end;
// ErrCorrupt means the bytes present do not form a whole valid frame.
func Decode(buf []byte, max int) (payload []byte, size int, err error) {
	if len(buf) == 0 {
		return nil, 0, io.EOF
	}
	if len(buf) < HeaderBytes {
		return nil, 0, ErrCorrupt
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if uint64(n) > uint64(max) || uint64(len(buf)-HeaderBytes) < uint64(n) {
		return nil, 0, ErrCorrupt
	}
	end := HeaderBytes + int(n)
	payload = buf[HeaderBytes:end]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, 0, ErrCorrupt
	}
	return payload, end, nil
}

// readChunk is the payload buffer Read starts with; it then at most doubles,
// so what a header claims is allocated only as the bytes arrive.
const readChunk = 64 << 10

// Read reads exactly one frame from the stream and returns its payload.
// io.ReadFull never over-reads, so interleaved readers of one stream stay
// frame-aligned. A clean EOF between frames is io.EOF, an EOF inside a
// frame io.ErrUnexpectedEOF, a length or CRC violation ErrCorrupt; any
// other read error is returned as it came. A payload up to readChunk is
// read into one exact-size buffer.
func Read(r io.Reader, max int) ([]byte, error) {
	var hdr [HeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if uint64(n) > uint64(max) {
		return nil, ErrCorrupt
	}
	want := int(n)
	payload := make([]byte, 0, min(want, readChunk))
	for len(payload) < want {
		payload = slices.Grow(payload, min(want-len(payload), len(payload)))
		got, err := io.ReadFull(r, payload[len(payload):min(want, cap(payload))])
		payload = payload[:len(payload)+got]
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, ErrCorrupt
	}
	return payload, nil
}
