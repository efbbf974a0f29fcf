package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// Tailer is a read-only live reader over another process's log directory:
// the replication feed a standby coordinator replays from. It never
// writes. Poll returns every record that has become fully visible since
// the last call, in LSN order, and interprets the on-disk shapes the
// writer can legitimately produce:
//
//   - A torn frame at the tail of the newest segment is an in-progress
//     append (or unsynced crash residue) — Poll stops there and retries
//     from the same position next time.
//   - A torn frame in a segment that has a successor is corruption: the
//     writer seals segments with a sync before rotating.
//   - A new segment whose base equals the next expected LSN is a
//     rotation — the tailer advances into it.
//   - Segments disappearing below the oldest snapshot are compaction;
//     harmless while the tailer reads ahead of them, ErrTailGap when it
//     has fallen behind them.
//
// Byte visibility tracks the writer's buffered flushes (not its fsyncs),
// which on one machine is exactly the repo's crash model: a killed
// process loses its user-space buffer, never flushed page cache — so
// nothing the tailer can observe ever un-happens short of media loss.
type Tailer struct {
	dir  string
	snap *Snapshot // newest readable snapshot at open time (nil: none)

	base  uint64 // base LSN of the open segment (valid when f != nil)
	f     *os.File
	read  int64  // bytes consumed from the open segment
	carry []byte // undecoded tail bytes (torn frame hold)
	next  uint64 // LSN the next emitted record gets
}

// ErrTailGap reports that the standby fell behind compaction: the record
// it needs next was in a segment the leader has already removed. Recovery
// is to re-bootstrap from a newer snapshot — the newest snapshot always
// covers everything compaction removed. ctrlplane.Standby heals this
// automatically by rebuilding its replica from that snapshot; a bare
// Tailer consumer must restart likewise.
var ErrTailGap = errors.New("wal: tail gap: next record was compacted away (standby fell too far behind)")

// OpenTailer opens a read-only tail over dir. The directory may be empty
// or not yet exist; replay then starts at LSN 0. When snapshots exist,
// the newest readable one bootstraps the tail: Snapshot returns it and
// Poll starts at its LSN.
func OpenTailer(dir string) (*Tailer, error) {
	_, snaps, err := listDir(dir)
	if err != nil {
		return nil, err
	}
	t := &Tailer{dir: dir, snap: newestSnapshot(snaps)}
	if t.snap != nil {
		t.next = t.snap.LSN
	}
	return t, nil
}

// Snapshot returns the bootstrap snapshot found at open time (nil when
// the tail starts from an empty log). Restore it before applying any
// Poll output.
func (t *Tailer) Snapshot() *Snapshot { return t.snap }

// NextLSN returns the LSN the next emitted record will carry.
func (t *Tailer) NextLSN() uint64 { return t.next }

// segments lists the directory's segments, oldest first.
func (t *Tailer) segments() ([]segInfo, error) {
	segs, _, err := listDir(t.dir)
	return segs, err
}

// open positions the tailer at the segment containing LSN t.next, skipping
// already-consumed records when the segment starts below it. Returns false
// when no such segment exists yet (nothing written, or t.next is exactly
// the base of a rotation that hasn't happened).
func (t *Tailer) open(segs []segInfo) (bool, error) {
	idx := -1
	for i := range segs {
		if segs[i].base <= t.next {
			idx = i
		}
	}
	if idx == -1 {
		if len(segs) > 0 {
			return false, fmt.Errorf("%w: need LSN %d, oldest segment starts at %d", ErrTailGap, t.next, segs[0].base)
		}
		return false, nil
	}
	f, err := os.Open(segs[idx].path)
	if err != nil {
		if os.IsNotExist(err) {
			// Compacted between ReadDir and Open; the next Poll rescans.
			return false, nil
		}
		return false, fmt.Errorf("wal: tail: %w", err)
	}
	t.f = f
	t.base = segs[idx].base
	t.read = 0
	t.carry = nil

	// Skip records below t.next (a snapshot bootstrap normally lands on a
	// segment boundary — the writer rotates on snapshot — so this loop is
	// usually empty).
	skip := t.next - t.base
	for skip > 0 {
		if _, err := t.fill(); err != nil {
			return false, err
		}
		n := 0
		for skip > 0 {
			_, adv, derr := decodeFrame(t.carry[n:])
			if derr != nil {
				t.close()
				return false, fmt.Errorf("wal: tail: segment %s too short to reach LSN %d", segs[idx].path, t.next)
			}
			n += adv
			skip--
		}
		t.carry = t.carry[n:]
	}
	return true, nil
}

// fill reads every byte the segment has beyond what was already consumed
// straight onto the end of the carry buffer and reports how many arrived.
func (t *Tailer) fill() (int, error) {
	st, err := t.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("wal: tail: %w", err)
	}
	if st.Size() < t.read {
		// Files only ever shrink on a successor's TruncateTail. This tailer
		// is stale by definition then: its consumer must restart.
		t.close()
		return 0, fmt.Errorf("wal: tail: segment %s shrank under the tailer (truncated by a new leader?)", st.Name())
	}
	if st.Size() == t.read {
		return 0, nil
	}
	want := int(st.Size() - t.read)
	t.carry = slices.Grow(t.carry, want)
	n, err := t.f.ReadAt(t.carry[len(t.carry):len(t.carry)+want], t.read)
	if err != nil && !(err == io.EOF && n == want) {
		return 0, fmt.Errorf("wal: tail: %w", err)
	}
	t.read += int64(n)
	t.carry = t.carry[:len(t.carry)+n]
	return n, nil
}

func (t *Tailer) close() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
}

// Poll returns every record that has become fully visible since the last
// call, in LSN order. An empty result means the tail is caught up (or the
// writer's next frame is still partially written). Errors other than a
// clean "nothing yet" are permanent: corruption, a compaction gap, or a
// truncation under the tailer.
func (t *Tailer) Poll() ([]PositionedRecord, error) {
	var out []PositionedRecord
	for {
		if t.f == nil {
			segs, err := t.segments()
			if err != nil {
				return out, err
			}
			ok, err := t.open(segs)
			if err != nil {
				return out, err
			}
			if !ok {
				return out, nil
			}
		}
		if _, err := t.fill(); err != nil {
			return out, err
		}
		for {
			rec, n, err := decodeFrame(t.carry)
			if err == io.EOF || err == ErrTorn {
				break
			}
			if err != nil {
				return out, fmt.Errorf("wal: tail: segment at LSN %d: %w", t.next, err)
			}
			out = append(out, PositionedRecord{LSN: t.next, Rec: rec})
			t.next++
			t.carry = t.carry[n:]
		}

		// Caught up to this segment's visible bytes. A successor segment
		// based at t.next means the writer rotated: this segment is sealed,
		// so leftover carry bytes are corruption, not an in-progress append.
		segs, err := t.segments()
		if err != nil {
			return out, err
		}
		rotated := false
		for i := range segs {
			if segs[i].base == t.next && segs[i].base > t.base {
				rotated = true
			}
		}
		if !rotated {
			return out, nil
		}
		if len(t.carry) > 0 {
			t.close()
			return out, fmt.Errorf("wal: tail: torn record before LSN %d in a sealed segment: corruption", t.next)
		}
		t.close()
	}
}

// Close releases the tailer's file handle. The tailer is not usable
// afterwards.
func (t *Tailer) Close() error {
	t.close()
	return nil
}
