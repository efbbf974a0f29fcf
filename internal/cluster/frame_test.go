package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/topology"
)

func sampleMessages() []*Message {
	return []*Message{
		{Type: MsgHello, Worker: "w0"},
		{Type: MsgWelcome, Worker: "w0"},
		{Type: MsgPing, Worker: "w0"},
		{Type: MsgRound, ID: 7, Domain: "default", Seq: 3,
			Events:  []topology.Event{{Epoch: 2, Kind: topology.EventBS, Index: 1, Factor: 0.5}},
			Tenants: []core.TenantSpec{{Name: "t0", LambdaHat: 12.5, Sigma: 0.1}}},
		{Type: MsgReply, ID: 7, Decision: &core.Decision{Accepted: []bool{true}, CU: []int{0}, Obj: 1.25}},
		{Type: MsgReply, ID: 8, Err: "domain not registered"},
		// Lease/fencing traffic: an epoch-stamped welcome, assign and round
		// (what a leased leader sends), and a worker's fenced rejection
		// carrying its newest known epoch.
		{Type: MsgWelcome, Worker: "w1", Epoch: 3},
		{Type: MsgAssign, Domain: "default", Worker: "w1", Epoch: 3},
		{Type: MsgRound, ID: 9, Domain: "default", Seq: 4, Epoch: 3,
			Tenants: []core.TenantSpec{{Name: "t1", LambdaHat: 8, Sigma: 0.2}}},
		{Type: MsgFenced, ID: 9, Worker: "w1", Epoch: 4},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		frame, err := encodeFrame(m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Type, err)
		}
		r := bytes.NewReader(frame)
		got, err := readFrame(r)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type, err)
		}
		if r.Len() != 0 {
			t.Fatalf("%s: consumed %d of %d bytes", m.Type, len(frame)-r.Len(), len(frame))
		}
		if !reflect.DeepEqual(&got, m) {
			t.Fatalf("%s: round trip changed message:\n in: %+v\nout: %+v", m.Type, m, got)
		}
	}
}

func TestDecodeFrameRejectsCorruption(t *testing.T) {
	frame, err := encodeFrame(&Message{Type: MsgPing, Worker: "w0"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"short header", frame[:frameHeaderBytes-1], io.ErrUnexpectedEOF},
		{"truncated payload", frame[:len(frame)-1], io.ErrUnexpectedEOF},
		{"flipped payload byte", flipByte(frame, frameHeaderBytes+2), ErrBadFrame},
		{"flipped crc byte", flipByte(frame, 5), ErrBadFrame},
		{"oversized length", overLength(frame), ErrBadFrame},
		{"non-json payload", rawFrame([]byte("{not json")), ErrBadFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := readFrame(bytes.NewReader(tc.buf)); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestReadFrameStream(t *testing.T) {
	var stream bytes.Buffer
	msgs := sampleMessages()
	for _, m := range msgs {
		frame, err := encodeFrame(m)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(frame)
	}
	r := bytes.NewReader(stream.Bytes())
	for i := range msgs {
		got, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != msgs[i].Type {
			t.Fatalf("frame %d: got type %q, want %q", i, got.Type, msgs[i].Type)
		}
	}
	if _, err := readFrame(r); err != io.EOF {
		t.Fatalf("clean stream end: got %v, want io.EOF", err)
	}

	// A stream cut mid-frame is a different failure than a clean end.
	cut := stream.Bytes()[:stream.Len()-3]
	r = bytes.NewReader(cut)
	var err error
	for err == nil {
		_, err = readFrame(r)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-frame cut: got %v, want io.ErrUnexpectedEOF", err)
	}
}

func flipByte(frame []byte, i int) []byte {
	out := append([]byte(nil), frame...)
	out[i] ^= 0xff
	return out
}

func overLength(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(out[0:4], maxFrameBytes+1)
	return out
}

// rawFrame frames arbitrary bytes with a correct length and CRC, so only
// the JSON layer can object.
func rawFrame(payload []byte) []byte {
	out, err := frame.Encode(payload, maxFrameBytes)
	if err != nil {
		panic(err)
	}
	return out
}

// frameHeaderBytes names the codec's header size for the tests whose local
// variables shadow the frame package.
const frameHeaderBytes = frame.HeaderBytes
