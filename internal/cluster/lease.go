package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"syscall"
	"time"
)

// Leader lease with a fencing epoch. Exactly one coordinator may dispatch
// at a time; the lease file is the ground truth. Every successful Acquire
// bumps a monotonically increasing epoch, which the coordinator stamps on
// every wire message and the WAL checks before every write — so a deposed
// leader that keeps running is rejected by workers (wire fencing) and
// cannot scribble on the log a successor now owns (storage fencing).
//
// The lease lives in a small JSON file next to the data it guards
// (conventionally <data-dir>/LEASE). Mutations happen under an exclusive
// flock(2) on <lease>.lock, so two nodes racing Acquire on one directory
// serialize. The kernel drops a dead mutator's lock at once; a live but
// stalled one is waited for, never broken into.

// ErrLeaseHeld reports that a live lease names another holder.
var ErrLeaseHeld = errors.New("cluster: lease held by another leader")

// ErrLeaseLost reports that the caller's lease is no longer valid: it
// expired, was re-acquired under a newer epoch, or names another holder.
var ErrLeaseLost = errors.New("cluster: lease lost")

// LeaseConfig parameterizes Acquire.
type LeaseConfig struct {
	// Path of the lease file. Required.
	Path string
	// Holder identifies this node in the lease file. Required.
	Holder string
	// TTL is how long an acquisition or renewal remains valid. A leader
	// must renew comfortably within it (TTL/3 is the usual cadence).
	// Default 3s.
	TTL time.Duration
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
}

func (c LeaseConfig) withDefaults() (LeaseConfig, error) {
	if c.Path == "" {
		return c, fmt.Errorf("cluster: lease needs a path")
	}
	if c.Holder == "" {
		return c, fmt.Errorf("cluster: lease needs a holder id")
	}
	if c.TTL <= 0 {
		c.TTL = 3 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c, nil
}

// leaseState is the on-disk representation.
type leaseState struct {
	Epoch   uint64 `json:"epoch"`
	Holder  string `json:"holder,omitempty"`
	Expires int64  `json:"expires_unix_nano,omitempty"`
}

// Lease is a held (or formerly held) leader lease.
type Lease struct {
	cfg   LeaseConfig
	epoch uint64
}

// withLock runs fn while holding the exclusive flock on <lease>.lock.
// Closing the descriptor releases the lock.
func withLock(cfg LeaseConfig, fn func() error) error {
	f, err := os.OpenFile(cfg.Path+".lock", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("cluster: lease lock: %w", err)
	}
	defer f.Close()
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("cluster: lease lock %s: %w", f.Name(), err)
	}
	return fn()
}

// readLeaseState loads the lease file; a missing file is the zero state
// (epoch 0, unheld).
func readLeaseState(path string) (leaseState, error) {
	var st leaseState
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return st, fmt.Errorf("cluster: lease read: %w", err)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("cluster: lease file %s corrupt: %w", path, err)
	}
	return st, nil
}

func writeLeaseState(path string, st leaseState) error {
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("cluster: lease encode: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("cluster: lease write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("cluster: lease write: %w", err)
	}
	return nil
}

// Acquire takes the lease, bumping the fencing epoch. It fails with
// ErrLeaseHeld while a live lease names another holder. Re-acquiring a
// lease this holder already has (e.g. after a restart) also bumps the
// epoch: the previous incarnation's dispatches must fence out.
func Acquire(cfg LeaseConfig) (*Lease, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	l := &Lease{cfg: cfg}
	err = withLock(cfg, func() error {
		st, err := readLeaseState(cfg.Path)
		if err != nil {
			return err
		}
		if st.Holder != "" && st.Holder != cfg.Holder && cfg.Now().UnixNano() < st.Expires {
			return fmt.Errorf("%w: %q until %s", ErrLeaseHeld, st.Holder,
				time.Unix(0, st.Expires).Format(time.RFC3339Nano))
		}
		l.epoch = st.Epoch + 1
		return writeLeaseState(cfg.Path, leaseState{
			Epoch:   l.epoch,
			Holder:  cfg.Holder,
			Expires: cfg.Now().Add(cfg.TTL).UnixNano(),
		})
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// leasePoll spaces a standby's Acquire attempts while the lease is held.
const leasePoll = 100 * time.Millisecond

// WaitAcquire retries Acquire every leasePoll until it succeeds or ctx
// ends — how a standby waits for the current leader's lease to lapse.
func WaitAcquire(ctx context.Context, cfg LeaseConfig) (*Lease, error) {
	for {
		l, err := Acquire(cfg)
		if err == nil {
			return l, nil
		}
		if !errors.Is(err, ErrLeaseHeld) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(leasePoll):
		}
	}
}

// Epoch returns the fencing epoch this acquisition was granted.
func (l *Lease) Epoch() uint64 { return l.epoch }

// Renew extends the lease's expiry. It fails with ErrLeaseLost when the
// lease no longer belongs to this acquisition (newer epoch, other holder)
// — the caller must stop dispatching immediately.
func (l *Lease) Renew() error {
	return withLock(l.cfg, func() error {
		st, err := readLeaseState(l.cfg.Path)
		if err != nil {
			return err
		}
		if st.Epoch != l.epoch || st.Holder != l.cfg.Holder {
			return fmt.Errorf("%w: file has epoch %d holder %q, we are epoch %d holder %q",
				ErrLeaseLost, st.Epoch, st.Holder, l.epoch, l.cfg.Holder)
		}
		st.Expires = l.cfg.Now().Add(l.cfg.TTL).UnixNano()
		return writeLeaseState(l.cfg.Path, st)
	})
}

// Check verifies — read-only, no lock — that this acquisition is still
// the live lease: same epoch, same holder, not expired. An expired lease
// fails Check even before anyone else takes it: past the TTL a successor
// may be acquiring concurrently, so the safe answer is ErrLeaseLost.
// This is the storage fence the WAL calls before every write.
func (l *Lease) Check() error {
	st, err := readLeaseState(l.cfg.Path)
	if err != nil {
		return err
	}
	if st.Epoch != l.epoch || st.Holder != l.cfg.Holder {
		return fmt.Errorf("%w: superseded by epoch %d holder %q", ErrLeaseLost, st.Epoch, st.Holder)
	}
	if l.cfg.Now().UnixNano() >= st.Expires {
		return fmt.Errorf("%w: expired at %s", ErrLeaseLost, time.Unix(0, st.Expires).Format(time.RFC3339Nano))
	}
	return nil
}

// Release gives the lease up cleanly (holder cleared, epoch kept — epochs
// only ever grow). Releasing a lease that moved on is a no-op.
func (l *Lease) Release() error {
	return withLock(l.cfg, func() error {
		st, err := readLeaseState(l.cfg.Path)
		if err != nil {
			return err
		}
		if st.Epoch != l.epoch || st.Holder != l.cfg.Holder {
			return nil
		}
		return writeLeaseState(l.cfg.Path, leaseState{Epoch: st.Epoch})
	})
}
