package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/frame"
)

// The wire framing is the WAL's (internal/frame). The only difference is
// the failure contract: a WAL torn tail is expected crash residue, while a
// bad frame on a live TCP stream is a protocol violation that kills the
// connection.

// ErrBadFrame marks a frame that arrived whole but is not valid: an
// oversized length, a CRC mismatch, or a payload that is not a message.
var ErrBadFrame = errors.New("cluster: torn or corrupt frame")

// maxFrameBytes bounds a frame's payload. Assign messages carry a whole
// topology as JSON, so the cap is generous; anything larger is a corrupt
// length field.
const maxFrameBytes = 64 << 20

// encodeFrame renders one message as a framed byte slice.
func encodeFrame(m *Message) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode message: %w", err)
	}
	out, err := frame.Encode(payload, maxFrameBytes)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return out, nil
}

// writeFrame sends one message on a connection shared by several writers;
// mu keeps whole frames from interleaving.
func writeFrame(w io.Writer, mu *sync.Mutex, m *Message) error {
	frame, err := encodeFrame(m)
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	_, err = w.Write(frame)
	return err
}

// readFrame reads exactly one frame from the stream. A clean EOF between
// frames surfaces as io.EOF; a mid-frame EOF as io.ErrUnexpectedEOF; a CRC
// or length violation, or a payload that is not a message, as ErrBadFrame;
// any other stream error (a passed read deadline, a closed connection) as
// it came. It never panics on any input (FuzzClusterFrameDecode).
func readFrame(r io.Reader) (Message, error) {
	payload, err := frame.Read(r, maxFrameBytes)
	var m Message
	if errors.Is(err, frame.ErrCorrupt) || (err == nil && json.Unmarshal(payload, &m) != nil) {
		return Message{}, ErrBadFrame
	}
	return m, err
}
