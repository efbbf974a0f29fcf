package wal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/admission"
	"repro/internal/reopt"
	"repro/internal/topology"
	"repro/internal/yield"
)

// snapshotsKept is how many snapshots survive compaction: the newest plus
// one fallback should the newest prove unreadable.
const snapshotsKept = 2

// Options parameterizes a Store.
type Options struct {
	// Dir is the data directory; created if absent. Required.
	Dir string
	// SegmentBytes rotates the active segment once it reaches this size;
	// default 4 MiB.
	SegmentBytes int64
	// NoSync drops the fsync from Sync (the buffered flush remains) —
	// for benchmarks and tests where media durability is irrelevant.
	NoSync bool
	// Fence, when set, is consulted before any byte can reach the
	// directory (every append, sync, and snapshot). A non-nil return
	// permanently poisons the store: all further writes fail. This is the
	// storage half of leader fencing — a deposed leader sharing the
	// directory with its successor must not scribble on a log it no
	// longer owns (cluster.Lease.Check is the intended implementation).
	Fence func() error
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, fmt.Errorf("wal: options need a directory")
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o, nil
}

// Snapshot is the durable image of the recoverable control-plane state at
// one log position: replay resumes at record LSN (records before it are
// folded into the state).
type Snapshot struct {
	LSN         uint64                  `json:"lsn"`
	Domains     []admission.DomainState `json:"domains,omitempty"`
	Controllers []reopt.ControllerState `json:"controllers,omitempty"`
	Ledger      yield.LedgerState       `json:"ledger"`
}

// PositionedRecord is one decoded log record with its LSN.
type PositionedRecord struct {
	LSN uint64
	Rec Record
}

// Recovered is what Open found on disk: the newest readable snapshot (nil
// on a fresh or snapshot-less directory) and the log suffix at or after
// its LSN, in order. Feed it to Recover to rebuild live state.
type Recovered struct {
	Snapshot *Snapshot
	Records  []PositionedRecord
	// TornTail reports that the final segment ended in a torn frame,
	// which Open truncated away.
	TornTail bool
}

type segInfo struct {
	path    string
	base    uint64  // LSN of the segment's first record
	offsets []int64 // byte offset of each record in the file
	size    int64
}

type snapInfo struct {
	path string
	lsn  uint64
}

// Store is the durable log. Safe for concurrent use; appenders of
// different domains share one frame stream and one group commit.
type Store struct {
	opt Options

	mu         sync.Mutex
	f          *os.File
	w          *bufio.Writer
	segs       []segInfo // on-disk segments, oldest first; last is active
	snaps      []snapInfo
	next       uint64 // LSN the next append gets
	recovering bool
	closed     bool
	appended   bool  // any append since Open (freezes the truncation index)
	poisoned   error // first fence failure or log I/O error; permanent
}

// writerBytes sizes the append buffer. Generously larger than a typical
// step's records so that, short of a Sync, appended frames stay in user
// space — which is also what makes Abort a faithful crash simulation.
const writerBytes = 256 << 10

// Open opens (or creates) the log in dir, repairs a torn tail, and returns
// the store plus everything recovery needs. The store is ready for appends
// immediately; call Recover first when rebuilding state.
func Open(opt Options) (*Store, *Recovered, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	s := &Store{opt: opt}
	rec := &Recovered{}

	if s.segs, s.snaps, err = listDir(opt.Dir); err != nil {
		return nil, nil, err
	}
	rec.Snapshot = newestSnapshot(s.snaps)
	snapLSN := uint64(0)
	if rec.Snapshot != nil {
		snapLSN = rec.Snapshot.LSN
	}

	// Scan segments: index every record, repair a torn tail, and collect
	// the suffix at or after the snapshot.
	s.next = 0
	for i := range s.segs {
		sg := &s.segs[i]
		if i > 0 && sg.base != s.next {
			return nil, nil, fmt.Errorf("wal: segment %s starts at LSN %d, want %d (gap or overlap)", sg.path, sg.base, s.next)
		}
		if i == 0 {
			s.next = sg.base
		}
		data, rerr := os.ReadFile(sg.path)
		if rerr != nil {
			return nil, nil, fmt.Errorf("wal: %w", rerr)
		}
		off := int64(0)
		for {
			r, n, derr := decodeFrame(data[off:])
			if derr != nil {
				if derr == ErrTorn {
					if i != len(s.segs)-1 {
						return nil, nil, fmt.Errorf("wal: torn record at %s+%d in a sealed segment: corruption", sg.path, off)
					}
					// Expected crash residue: drop the torn tail.
					if terr := os.Truncate(sg.path, off); terr != nil {
						return nil, nil, fmt.Errorf("wal: %w", terr)
					}
					rec.TornTail = true
				}
				break
			}
			sg.offsets = append(sg.offsets, off)
			if s.next >= snapLSN {
				rec.Records = append(rec.Records, PositionedRecord{LSN: s.next, Rec: r})
			}
			s.next++
			off += int64(n)
		}
		sg.size = off
	}
	if s.next < snapLSN {
		// The snapshot syncs the log before it is written, so its LSN can
		// never outrun the durable record count.
		return nil, nil, fmt.Errorf("wal: snapshot at LSN %d but log ends at %d", snapLSN, s.next)
	}

	if len(s.segs) == 0 {
		if err := s.openSegmentLocked(s.next); err != nil {
			return nil, nil, err
		}
	} else {
		active := &s.segs[len(s.segs)-1]
		f, oerr := os.OpenFile(active.path, os.O_WRONLY, 0o644)
		if oerr != nil {
			return nil, nil, fmt.Errorf("wal: %w", oerr)
		}
		if _, oerr = f.Seek(active.size, 0); oerr != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: %w", oerr)
		}
		s.f = f
		s.w = bufio.NewWriterSize(f, writerBytes)
	}
	return s, rec, nil
}

// listDir returns a log directory's segments and snapshots, oldest first —
// the one reading of the directory the writer (Open) and a read-only tail
// share. A directory that does not exist yet lists as empty.
func listDir(dir string) (segs []segInfo, snaps []snapInfo, err error) {
	names, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, de := range names {
		name := de.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			base, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
			if perr != nil {
				return nil, nil, fmt.Errorf("wal: bad segment name %q", name)
			}
			segs = append(segs, segInfo{path: filepath.Join(dir, name), base: base})
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".json"):
			lsn, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".json"), 16, 64)
			if perr != nil {
				return nil, nil, fmt.Errorf("wal: bad snapshot name %q", name)
			}
			snaps = append(snaps, snapInfo{path: filepath.Join(dir, name), lsn: lsn})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].lsn < snaps[j].lsn })
	return segs, snaps, nil
}

// newestSnapshot loads the newest readable snapshot of an oldest-first
// list, nil when there is none. An unreadable one falls back to the
// previous (compaction keeps a spare for exactly this).
func newestSnapshot(snaps []snapInfo) *Snapshot {
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := os.ReadFile(snaps[i].path)
		if err != nil {
			continue
		}
		var snap Snapshot
		if json.Unmarshal(data, &snap) == nil && snap.LSN == snaps[i].lsn {
			return &snap
		}
	}
	return nil
}

// openSegmentLocked creates a fresh segment whose first record will be LSN
// base and makes it the active one. Caller holds s.mu (or is Open).
func (s *Store) openSegmentLocked(base uint64) error {
	path := filepath.Join(s.opt.Dir, fmt.Sprintf("wal-%016x.seg", base))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	s.f = f
	s.w = bufio.NewWriterSize(f, writerBytes)
	s.segs = append(s.segs, segInfo{path: path, base: base})
	return nil
}

// append frames one record onto the active segment (buffered; durable at
// the next Sync). No-op while recovering: replay drives the engine and
// controller through their normal code paths, whose WAL hooks must not
// re-log what is being replayed.
func (s *Store) append(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovering {
		return nil
	}
	if s.closed {
		return fmt.Errorf("wal: store is closed")
	}
	if err := s.fenceLocked(); err != nil {
		return err
	}
	active := &s.segs[len(s.segs)-1]
	if active.size >= s.opt.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
		active = &s.segs[len(s.segs)-1]
	}
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}
	if _, err := s.w.Write(frame); err != nil {
		return s.poisonLocked(err)
	}
	active.offsets = append(active.offsets, active.size)
	active.size += int64(len(frame))
	s.next++
	s.appended = true
	return nil
}

// rotateLocked seals the active segment and opens the next. Caller holds
// s.mu.
func (s *Store) rotateLocked() error {
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return s.openSegmentLocked(s.next)
}

// fenceLocked refuses a poisoned store and runs the fence hook; a fence
// failure poisons the store for good. Caller holds s.mu. The check sits
// on every path that pushes bytes toward the directory (append, sync,
// snapshot): under log-before-ack the round record syncs before any
// dispatch or ack, so a deposed leader dies here before it can decide
// anything its successor wouldn't.
func (s *Store) fenceLocked() error {
	if s.poisoned != nil {
		return s.poisoned
	}
	if s.opt.Fence == nil {
		return nil
	}
	if err := s.opt.Fence(); err != nil {
		return s.poisonLocked(fmt.Errorf("fenced: %w", err))
	}
	return nil
}

// poisonLocked records a failed write, flush or fsync of the log (or a
// fence failure) as the store's permanent state and returns it, prefixed
// "wal: ". Fail-stop: after an I/O error
// nothing says which buffered records reached the disk (a failed fsync
// clears the kernel's error state, so a retry can "succeed" over lost
// records), so every later append, sync and snapshot repeats this error
// through fenceLocked. Caller holds s.mu.
func (s *Store) poisonLocked(err error) error {
	s.poisoned = fmt.Errorf("wal: %w", err)
	return s.poisoned
}

// syncLocked flushes the append buffer and (unless NoSync) fsyncs the
// active segment. Caller holds s.mu.
func (s *Store) syncLocked() error {
	if err := s.fenceLocked(); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return s.poisonLocked(err)
	}
	if s.opt.NoSync {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return s.poisonLocked(err)
	}
	return nil
}

// Sync makes every appended record durable — the group commit.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovering {
		return nil
	}
	if s.closed {
		return fmt.Errorf("wal: store is closed")
	}
	return s.syncLocked()
}

// LSN returns the LSN the next appended record will get.
func (s *Store) LSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// --- admission.RoundLog ---

// AppendRound implements admission.RoundLog.
func (s *Store) AppendRound(domain string, seq uint64, batch []admission.Request) error {
	return s.append(&Record{Kind: KindRound, Domain: domain, Seq: seq, Batch: batch})
}

// AppendForecasts implements admission.RoundLog.
func (s *Store) AppendForecasts(domain string, ups []admission.ForecastUpdate) error {
	return s.append(&Record{Kind: KindForecasts, Domain: domain, Forecasts: ups})
}

// AppendAdvance implements admission.RoundLog.
func (s *Store) AppendAdvance(domain string) error {
	return s.append(&Record{Kind: KindAdvance, Domain: domain})
}

// AppendTopology implements admission.RoundLog.
func (s *Store) AppendTopology(domain string, events []topology.Event) error {
	return s.append(&Record{Kind: KindTopology, Domain: domain, Events: events})
}

// AppendHandover refuses without writing: no record kind moves a slice
// between domains. It stays only because the benchmark's timed log still
// forwards to it; it goes when that seam is next rewritten.
func (s *Store) AppendHandover(fromDomain, toDomain, name string) error {
	return fmt.Errorf("wal: no handover record kind (slice %q, %q → %q)", name, fromDomain, toDomain)
}

// SyncRound implements admission.RoundLog: the once-per-round group commit.
func (s *Store) SyncRound() error { return s.Sync() }

// --- reopt.StepLog ---

// AppendSettle implements reopt.StepLog.
func (s *Store) AppendSettle(domain string, epoch int, entries []yield.Entry) error {
	return s.append(&Record{Kind: KindSettle, Domain: domain, Epoch: epoch, Entries: entries})
}

// AppendObserve implements reopt.StepLog.
func (s *Store) AppendObserve(domain string, epoch int, alive []string, peaks []reopt.ObservedPeak) error {
	return s.append(&Record{Kind: KindObserve, Domain: domain, Epoch: epoch, Alive: alive, Peaks: peaks})
}

// --- snapshots ---

// WriteSnapshot persists snap at the log's current position: sync the log,
// write the state to snap-<LSN>.json via tmp + rename, rotate the segment,
// and compact snapshots and segments nothing references anymore. snap.LSN
// is set by this call.
func (s *Store) WriteSnapshot(snap *Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("wal: store is closed")
	}
	if err := s.fenceLocked(); err != nil {
		return err
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	snap.LSN = s.next
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("wal: encode snapshot: %w", err)
	}
	path := filepath.Join(s.opt.Dir, fmt.Sprintf("snap-%016x.json", snap.LSN))
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, data, !s.opt.NoSync); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	s.syncDir()

	// A snapshot at the same LSN as an earlier one (quiet log) replaces it.
	if n := len(s.snaps); n > 0 && s.snaps[n-1].lsn == snap.LSN {
		s.snaps = s.snaps[:n-1]
	}
	s.snaps = append(s.snaps, snapInfo{path: path, lsn: snap.LSN})

	// Rotate so the compaction boundary is a segment boundary: every
	// record before the snapshot sits in sealed segments.
	if active := &s.segs[len(s.segs)-1]; active.size > 0 {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}

	// Keep the newest snapshotsKept snapshots; drop older ones, then drop
	// every sealed segment whose records all predate the oldest kept
	// snapshot — no recovery can need them.
	for len(s.snaps) > snapshotsKept {
		os.Remove(s.snaps[0].path)
		s.snaps = s.snaps[1:]
	}
	keep := s.snaps[0].lsn
	for len(s.segs) > 1 && s.segs[1].base <= keep {
		os.Remove(s.segs[0].path)
		s.segs = s.segs[1:]
	}
	s.syncDir()
	return nil
}

// writeFileSync writes data to path and optionally fsyncs it before close.
func writeFileSync(path string, data []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// syncDir fsyncs the data directory (rename/unlink durability);
// best-effort, as not every filesystem supports it.
func (s *Store) syncDir() {
	if s.opt.NoSync {
		return
	}
	if d, err := os.Open(s.opt.Dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// --- recovery support ---

// setRecovering suppresses (or re-enables) appends and syncs while logged
// records are replayed through the live engine/controller paths, whose WAL
// hooks would otherwise re-log them.
func (s *Store) setRecovering(on bool) {
	s.mu.Lock()
	s.recovering = on
	s.mu.Unlock()
}

// TruncateTail physically drops every record at or after fromLSN — the
// uncommitted step prefix a crash left behind. Recovery-time only: it must
// run before any post-open append.
func (s *Store) TruncateTail(fromLSN uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.appended {
		return fmt.Errorf("wal: TruncateTail after appends")
	}
	if fromLSN >= s.next {
		return nil
	}
	// The active segment is reopened at the cut below.
	s.w.Flush()
	s.f.Close()
	// Drop whole segments past the cut, newest first.
	for len(s.segs) > 0 {
		last := len(s.segs) - 1
		if s.segs[last].base < fromLSN || last == 0 {
			break
		}
		if err := os.Remove(s.segs[last].path); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		s.segs = s.segs[:last]
	}
	// Cut within the now-last segment.
	sg := &s.segs[len(s.segs)-1]
	if i := fromLSN - sg.base; fromLSN > sg.base && i < uint64(len(sg.offsets)) {
		if err := os.Truncate(sg.path, sg.offsets[i]); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		sg.size = sg.offsets[i]
		sg.offsets = sg.offsets[:i]
	} else if fromLSN <= sg.base {
		if err := os.Truncate(sg.path, 0); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		sg.size, sg.offsets = 0, nil
	}
	f, err := os.OpenFile(sg.path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(sg.size, 0); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	s.f = f
	s.w = bufio.NewWriterSize(f, writerBytes)
	s.next = fromLSN
	s.syncDir()
	return nil
}

// --- lifecycle ---

// Close syncs and closes the store. A clean shutdown typically writes a
// final snapshot first, making the next open replay-free.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Abort closes the store WITHOUT flushing the append buffer, discarding
// every record since the last Sync — the crash simulation the
// kill-and-replay tests are built on. The dropped tail is exactly what a
// hard kill could lose under the group-commit contract.
func (s *Store) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.f.Close()
}
