package cluster

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable clock: lease expiry in these tests is an
// explicit advance, never a sleep.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Now()} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func leaseCfg(t *testing.T, clk *fakeClock, holder string) LeaseConfig {
	t.Helper()
	return LeaseConfig{
		Path:   filepath.Join(t.TempDir(), "LEASE"),
		Holder: holder,
		TTL:    time.Second,
		Now:    clk.now,
	}
}

// TestLeaseTransitions walks the lease state machine table-style: every
// transition the replication design leans on — acquire, renew, expiry,
// takeover fencing a stale leader, split-brain refusal, clean release —
// is pinned under a fake clock.
func TestLeaseTransitions(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, clk *fakeClock, cfg LeaseConfig)
	}{
		{"acquire empty state grants epoch 1", func(t *testing.T, clk *fakeClock, cfg LeaseConfig) {
			l, err := Acquire(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if l.Epoch() != 1 {
				t.Fatalf("epoch %d, want 1", l.Epoch())
			}
			if err := l.Check(); err != nil {
				t.Fatalf("fresh lease fails Check: %v", err)
			}
		}},
		{"renew extends past the original TTL", func(t *testing.T, clk *fakeClock, cfg LeaseConfig) {
			l, err := Acquire(cfg)
			if err != nil {
				t.Fatal(err)
			}
			clk.advance(800 * time.Millisecond)
			if err := l.Renew(); err != nil {
				t.Fatal(err)
			}
			clk.advance(800 * time.Millisecond) // 1.6s after acquire: dead without the renewal
			if err := l.Check(); err != nil {
				t.Fatalf("renewed lease fails Check: %v", err)
			}
		}},
		{"expiry fails Check before anyone takes over", func(t *testing.T, clk *fakeClock, cfg LeaseConfig) {
			l, err := Acquire(cfg)
			if err != nil {
				t.Fatal(err)
			}
			clk.advance(cfg.TTL + time.Millisecond)
			// Conservative fencing: past the TTL a successor may be
			// acquiring concurrently, so Check must already fail.
			if err := l.Check(); !errors.Is(err, ErrLeaseLost) {
				t.Fatalf("expired lease Check = %v, want ErrLeaseLost", err)
			}
		}},
		{"takeover fences the stale leader", func(t *testing.T, clk *fakeClock, cfg LeaseConfig) {
			old, err := Acquire(cfg)
			if err != nil {
				t.Fatal(err)
			}
			clk.advance(2 * cfg.TTL)
			next := cfg
			next.Holder = "successor"
			nl, err := Acquire(next)
			if err != nil {
				t.Fatalf("takeover after expiry: %v", err)
			}
			if nl.Epoch() != old.Epoch()+1 {
				t.Fatalf("takeover epoch %d, want %d", nl.Epoch(), old.Epoch()+1)
			}
			if err := old.Check(); !errors.Is(err, ErrLeaseLost) {
				t.Fatalf("deposed leader Check = %v, want ErrLeaseLost", err)
			}
			if err := old.Renew(); !errors.Is(err, ErrLeaseLost) {
				t.Fatalf("deposed leader Renew = %v, want ErrLeaseLost", err)
			}
			if err := nl.Check(); err != nil {
				t.Fatalf("successor lease fails Check: %v", err)
			}
		}},
		{"split-brain attempt is refused while the lease is live", func(t *testing.T, clk *fakeClock, cfg LeaseConfig) {
			l, err := Acquire(cfg)
			if err != nil {
				t.Fatal(err)
			}
			clk.advance(cfg.TTL / 2)
			rival := cfg
			rival.Holder = "rival"
			if _, err := Acquire(rival); !errors.Is(err, ErrLeaseHeld) {
				t.Fatalf("rival Acquire = %v, want ErrLeaseHeld", err)
			}
			if err := l.Check(); err != nil {
				t.Fatalf("holder lost the lease to a refused rival: %v", err)
			}
		}},
		{"re-acquire by the same holder bumps the epoch", func(t *testing.T, clk *fakeClock, cfg LeaseConfig) {
			l1, err := Acquire(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A restarted leader re-acquires its own live lease; the bump
			// fences its previous incarnation's in-flight dispatches.
			l2, err := Acquire(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if l2.Epoch() != l1.Epoch()+1 {
				t.Fatalf("re-acquire epoch %d, want %d", l2.Epoch(), l1.Epoch()+1)
			}
			if err := l1.Check(); !errors.Is(err, ErrLeaseLost) {
				t.Fatalf("previous incarnation Check = %v, want ErrLeaseLost", err)
			}
		}},
		{"release lets a successor in immediately, epoch still grows", func(t *testing.T, clk *fakeClock, cfg LeaseConfig) {
			l, err := Acquire(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Release(); err != nil {
				t.Fatal(err)
			}
			next := cfg
			next.Holder = "successor"
			nl, err := Acquire(next)
			if err != nil {
				t.Fatalf("acquire after release: %v", err)
			}
			if nl.Epoch() != l.Epoch()+1 {
				t.Fatalf("post-release epoch %d, want %d", nl.Epoch(), l.Epoch()+1)
			}
			if err := l.Check(); !errors.Is(err, ErrLeaseLost) {
				t.Fatalf("released lease Check = %v, want ErrLeaseLost", err)
			}
		}},
		{"abandoned sidecar lock is broken", func(t *testing.T, clk *fakeClock, cfg LeaseConfig) {
			// A mutator that died mid-mutation leaves the O_EXCL lock file
			// behind; once visibly stale it must not wedge the lease forever.
			lock := cfg.Path + ".lock"
			if err := os.WriteFile(lock, []byte("dead pid=1\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			old := time.Now().Add(-2 * staleLockAge)
			if err := os.Chtimes(lock, old, old); err != nil {
				t.Fatal(err)
			}
			if _, err := Acquire(cfg); err != nil {
				t.Fatalf("acquire over a stale lock: %v", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			clk := newFakeClock()
			tc.run(t, clk, leaseCfg(t, clk, "leader"))
		})
	}
}

// TestWaitAcquireTakesOverWhenLeaseLapses pins how a standby waits: held
// lease → ErrLeaseHeld retried; expiry → acquired under the next epoch.
func TestWaitAcquireTakesOverWhenLeaseLapses(t *testing.T) {
	clk := newFakeClock()
	cfg := leaseCfg(t, clk, "leader")
	if _, err := Acquire(cfg); err != nil {
		t.Fatal(err)
	}

	standby := cfg
	standby.Holder = "standby"
	done := make(chan *Lease, 1)
	errs := make(chan error, 1)
	go func() {
		l, err := WaitAcquire(context.Background(), standby, time.Millisecond)
		if err != nil {
			errs <- err
			return
		}
		done <- l
	}()

	// While the leader's lease is live the standby must keep waiting.
	select {
	case l := <-done:
		t.Fatalf("standby acquired epoch %d while the leader's lease was live", l.Epoch())
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(50 * time.Millisecond):
	}

	clk.advance(2 * cfg.TTL) // the leader died; its lease lapses
	select {
	case l := <-done:
		if l.Epoch() != 2 {
			t.Fatalf("takeover epoch %d, want 2", l.Epoch())
		}
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("standby never took the lapsed lease")
	}
}

// TestWaitAcquireHonorsContext: a standby told to shut down while waiting
// returns the context's error instead of spinning.
func TestWaitAcquireHonorsContext(t *testing.T) {
	clk := newFakeClock()
	cfg := leaseCfg(t, clk, "leader")
	if _, err := Acquire(cfg); err != nil {
		t.Fatal(err)
	}
	standby := cfg
	standby.Holder = "standby"
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := WaitAcquire(ctx, standby, time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitAcquire = %v, want context.DeadlineExceeded", err)
	}
}
