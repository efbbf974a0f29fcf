package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzWALDecode throws arbitrary bytes at the frame decoder the open-time
// segment scan runs on. The decoder's contract under corruption is total:
// never panic, never loop, and classify every input as a clean end
// (io.EOF), a whole valid frame, or ErrTorn. Seeds cover valid frames,
// torn prefixes and targeted mutations; the fuzzer takes it from there.
func FuzzWALDecode(f *testing.F) {
	var valid []byte
	for i := 0; i < 3; i++ {
		frame, err := encodeFrame(testRecord(i))
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, frame...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                       // torn tail
	f.Add(valid[:5])                                  // torn header
	f.Add([]byte{})                                   // clean end
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length
	flipped := append([]byte(nil), valid...)
	flipped[11] ^= 0x80
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Scan exactly like Open does: decode frames until EOF or a torn
		// frame, and make progress on every valid one.
		buf := data
		for {
			rec, n, err := decodeFrame(buf)
			if err == io.EOF {
				if len(buf) != 0 {
					t.Fatalf("io.EOF with %d bytes left", len(buf))
				}
				return
			}
			if err != nil {
				if err != ErrTorn {
					t.Fatalf("decode error is neither EOF nor ErrTorn: %v", err)
				}
				return
			}
			if n <= 0 || n > len(buf) {
				t.Fatalf("decoded frame size %d out of [1, %d]", n, len(buf))
			}
			// A decoded record must re-encode; its payload survived a CRC
			// check, so it is a record the writer could have produced.
			if _, rerr := encodeFrame(&rec); rerr != nil {
				t.Fatalf("valid frame re-encode failed: %v", rerr)
			}
			buf = buf[n:]
		}
	})
}

// FuzzWALTail points the one log reader at two arbitrary-bytes segments: a
// sealed one at LSN 0 and the newest after it, based where the sealed one's
// whole records end (skew odd: one LSN further, a gap). The tailer must
// never panic, emit records in dense LSN order from 0, apply the sealed
// rule — bytes left over in the sealed segment are corruption, a successor
// off the next LSN is a gap — and agree with Open on the same bytes: a
// standby and a restarted leader must never disagree about what the log
// says.
func FuzzWALTail(f *testing.F) {
	var valid []byte
	for i := 0; i < 3; i++ {
		frame, err := encodeFrame(testRecord(i))
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, frame...)
	}
	flipped := append([]byte(nil), valid...)
	flipped[11] ^= 0x80
	f.Add(valid, valid, uint8(0))
	f.Add(valid, valid[:len(valid)-3], uint8(0)) // torn in-progress append
	f.Add(valid, []byte{}, uint8(0))             // empty newest segment
	f.Add(valid, valid, uint8(1))                // missing records between the two
	f.Add(valid[:len(valid)-3], valid, uint8(0)) // torn sealed segment
	f.Add(flipped, valid, uint8(0))
	f.Add([]byte{}, valid[:5], uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, valid, uint8(0))

	f.Fuzz(func(t *testing.T, sealed, newest []byte, skew uint8) {
		whole, rest := 0, sealed
		for {
			_, n, err := decodeFrame(rest)
			if err != nil {
				break
			}
			whole++
			rest = rest[n:]
		}
		base := uint64(whole) + uint64(skew%2)
		if base == 0 {
			base = 1 // the successor must sort after the sealed segment
		}
		write := func(dir string) {
			for _, sg := range []struct {
				base uint64
				data []byte
			}{{0, sealed}, {base, newest}} {
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", sg.base)), sg.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		dir := t.TempDir()
		write(dir)
		tail, err := OpenTailer(dir)
		if err != nil {
			t.Fatalf("open over two segments: %v", err)
		}
		defer tail.Close()
		recs, perr := tail.Poll()
		for i, pr := range recs {
			if pr.LSN != uint64(i) {
				t.Fatalf("record %d carries LSN %d", i, pr.LSN)
			}
		}
		want := ""
		switch {
		case len(rest) > 0:
			want = "corruption"
		case base != uint64(whole):
			want = "gap"
		}
		if want != "" {
			if perr == nil || !strings.Contains(perr.Error(), want) {
				t.Fatalf("poll = %v, want an error naming %q", perr, want)
			}
		} else if perr != nil {
			t.Fatalf("poll over a whole sealed segment and its successor: %v", perr)
		} else if more, err := tail.Poll(); err != nil || len(more) != 0 {
			t.Fatalf("idle re-poll produced %d records, err %v", len(more), err)
		}

		dir2 := t.TempDir()
		write(dir2)
		ws, recovered, oerr := Open(Options{Dir: dir2, NoSync: true})
		if (perr == nil) != (oerr == nil) {
			t.Fatalf("tailer and opener disagree: poll %v, Open %v", perr, oerr)
		}
		if oerr != nil {
			return
		}
		defer ws.Abort()
		if !reflect.DeepEqual(recs, recovered.Records) {
			t.Fatalf("tailer and opener disagree:\n tail: %+v\n open: %+v", recs, recovered.Records)
		}
	})
}
