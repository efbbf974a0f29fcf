package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/frame"
)

// Tailer is a read-only live reader over another process's log directory:
// the replication feed a standby coordinator replays from. It never
// writes. Poll returns every record that has become fully visible since
// the last call, in LSN order, and interprets the on-disk shapes the
// writer can legitimately produce:
//
//   - A torn frame at the tail of the newest segment is an in-progress
//     append (or unsynced crash residue) — Poll stops there and retries
//     from the same position next time; Take cuts it off.
//   - A segment that has a successor is sealed: the writer syncs a segment
//     before it creates the next. After one more read, bytes left over in
//     it are corruption, and a successor that does not start at the next
//     LSN is a gap. Both are errors, never a stall.
//   - A successor whose base equals the next expected LSN is a rotation —
//     the tailer advances into it.
//   - Segments disappearing below the oldest snapshot are compaction;
//     harmless while the tailer reads ahead of them, ErrTailGap when it
//     has fallen behind them.
//
// This is the only reader of segments: Open is a Tailer drained and taken,
// so a restarted leader and a standby read the log by the same rules.
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

// open positions the tailer at the segment containing LSN t.next, stepping
// over already-consumed records when the segment starts below it (frame by
// frame, never decoding a payload). Returns false when no such segment
// exists yet (nothing written, or t.next is exactly the base of a rotation
// that hasn't happened). No segment past LSN 0 is a gap (compaction keeps one).
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
		if t.next > 0 {
			return false, fmt.Errorf("wal: tail: no segment holds LSN %d: gap", t.next)
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

	// A snapshot bootstrap normally lands on a segment boundary — the
	// writer rotates on snapshot — so this is usually nothing. Every record
	// below a snapshot was synced before the snapshot was written, so a
	// segment that breaks off short of it is damaged, not in progress.
	if skip := t.next - t.base; skip > 0 {
		if _, err := t.fill(); err != nil {
			return false, err
		}
		for ; skip > 0; skip-- {
			_, n, err := frame.Decode(t.carry, maxRecordBytes)
			if err != nil {
				t.close()
				return false, fmt.Errorf("wal: tail: segment %s breaks off before LSN %d: gap or corruption", segs[idx].path, t.next)
			}
			t.carry = t.carry[n:]
		}
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
// writer's next frame is still partially written). Errors are permanent:
// corruption, a gap (compaction outran the tail, or a segment is missing),
// or a truncation under the tailer.
func (t *Tailer) Poll() ([]PositionedRecord, error) {
	var out []PositionedRecord
	for {
		if t.f == nil {
			segs, _, err := listDir(t.dir)
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
		out = t.decode(out)

		// Caught up to this segment's visible bytes. A successor means the
		// writer sealed this one: it syncs a segment before it creates the
		// next, so one more read sees every byte the segment will ever hold.
		segs, _, err := listDir(t.dir)
		if err != nil {
			return out, err
		}
		i := slices.IndexFunc(segs, func(sg segInfo) bool { return sg.base > t.base })
		if i < 0 {
			return out, nil
		}
		if _, err := t.fill(); err != nil {
			return out, err
		}
		out = t.decode(out)
		t.close()
		if len(t.carry) > 0 {
			return out, fmt.Errorf("wal: tail: torn record at LSN %d in a sealed segment: corruption", t.next)
		}
		if segs[i].base != t.next {
			return out, fmt.Errorf("wal: tail: segment %s starts at LSN %d, want %d: gap", segs[i].path, segs[i].base, t.next)
		}
	}
}

// decode appends every whole record at the head of the carry buffer to out
// and leaves the undecodable rest (an in-progress append, or damage) held.
func (t *Tailer) decode(out []PositionedRecord) []PositionedRecord {
	for {
		rec, n, err := decodeFrame(t.carry)
		if err != nil {
			return out
		}
		out = append(out, PositionedRecord{LSN: t.next, Rec: rec})
		t.next++
		t.carry = t.carry[n:]
	}
}

// Take opens the log for appending where the tail stands — the one way a
// Store is opened (Open is a Tailer drained and taken). Call it once the
// previous writer is dead or fenced and every record the tail delivered
// has been consumed. The tail's segment becomes the active one, cut back to
// the tail's position: what follows there is undecodable residue (a
// crashed writer's torn append). A tail that has not delivered every whole
// record in the directory is refused, so the store appends to exactly the
// log its caller replayed. The store writes the tail's directory (opt.Dir
// must be empty or name it); the tailer is spent afterwards.
func (t *Tailer) Take(opt Options) (*Store, error) {
	if opt.Dir != "" && opt.Dir != t.dir {
		return nil, fmt.Errorf("wal: take: options name directory %s, the tail reads %s", opt.Dir, t.dir)
	}
	opt.Dir = t.dir
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	recs, err := t.Poll()
	if err != nil {
		return nil, err
	}
	if len(recs) > 0 {
		return nil, fmt.Errorf("wal: take: the tail has not delivered LSN %d", recs[0].LSN)
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s := &Store{opt: opt, w: bufio.NewWriterSize(nil, writerBytes), next: t.next}
	if s.segs, s.snaps, err = listDir(opt.Dir); err != nil {
		return nil, err
	}
	if n := len(s.segs); n > 0 && (t.f == nil || s.segs[n-1].base != t.base) {
		return nil, fmt.Errorf("wal: take: the tail at LSN %d is not on the newest segment", t.next)
	}
	if t.f == nil {
		return s, s.openSegmentLocked(t.next)
	}
	active := &s.segs[len(s.segs)-1]
	active.size = t.read - int64(len(t.carry))
	f, err := os.OpenFile(active.path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if len(t.carry) > 0 {
		err = f.Truncate(active.size)
	}
	if err == nil {
		_, err = f.Seek(active.size, 0)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	s.f = f
	s.w.Reset(f)
	t.close()
	return s, nil
}

// Close releases the tailer's file handle. The tailer is not usable
// afterwards.
func (t *Tailer) Close() error {
	t.close()
	return nil
}
