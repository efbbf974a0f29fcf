package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opLimit is the watchdog: one operation (a round, a recovery, an HTTP
// call) running longer than this aborts the pass as failed instead of
// hanging the benchmark on a pathological instance.
const opLimit = 30 * time.Second

// pass is one measured execution of one workload: the load generator's
// recorder, shared by every driver goroutine of the workload. The end-to-end
// numbers come from an untraced pass (tr == nil); a traced pass repeats the
// same operations with the seams wrapped and fills the per-layer series.
type pass struct {
	w       *workload
	seed    int64
	seconds float64
	tr      *tracer // nil on the untraced pass
	dir     string  // scratch directory (WAL data dirs), removed afterwards

	mu         sync.Mutex
	setupS     []float64
	decisionMs []float64
	roundMs    []float64
	decisionAt []int // the unit each latency sample was booked in
	roundAt    []int
	decisions  int
	rounds     int
	attempted  int
	failed     int
	units      []string    // per-unit decision fingerprints, in unit order
	unitAt     []float64   // timed wall (s) at each unit's end
	unitDec    []int       // decisions made by each unit's end
	refUs      [][]float64 // reference-kernel times: [0] before the first unit, [u+1] after unit u (speed.go)
	replay     []replaySet
	violations []string // correctness check failures: any one fails the whole pass
	notes      []string // what went wrong with single failed operations
	series     map[string][]float64
	counts     map[string]float64

	// Timed-phase accounting, accumulated over timed segments (a workload
	// whose timed work is interleaved with untimed preparation opens one
	// segment per cycle).
	timed    time.Duration
	alloc    uint64
	cpu      time.Duration
	segStart time.Time
	segAlloc uint64
	segCPU   time.Duration

	// rateUnits freezes the throughput phase of a workload whose latency
	// phase follows it on the same clock (closeRate): its first so many units.
	rateUnits int

	began    time.Time
	watchdog []atomic.Int64 // per driver: unix-nano start of its running op, 0 when idle
	stopDog  chan struct{}
	dogDone  chan struct{}
}

func newPass(w *workload, seed int64, seconds float64, traced bool, dir string) *pass {
	p := &pass{
		w: w, seed: seed, seconds: seconds, dir: dir,
		series: map[string][]float64{}, counts: map[string]float64{},
		watchdog: make([]atomic.Int64, 4),
		stopDog:  make(chan struct{}), dogDone: make(chan struct{}),
		began: time.Now(),
	}
	if traced {
		p.tr = &tracer{t0: p.began, cur: map[uint64][2]string{}}
		p.tr.muted.Store(true)
	}
	go p.runWatchdog()
	return p
}

func (p *pass) traced() bool { return p.tr != nil }

// runWatchdog aborts the process when a driver's operation overruns opLimit:
// a solve cannot be cancelled from outside, so failing fast is the only way
// not to hang.
func (p *pass) runWatchdog() {
	defer close(p.dogDone)
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-p.stopDog:
			return
		case now := <-tick.C:
			for i := range p.watchdog {
				if s := p.watchdog[i].Load(); s != 0 && now.UnixNano()-s > int64(opLimit) {
					fmt.Fprintf(os.Stderr, "benchmark: %s: driver %d: one operation ran over %v — aborted as failed\n", p.w.name, i, opLimit)
					os.RemoveAll(p.dir)
					os.Exit(3)
				}
			}
		}
	}
}

// close stops the watchdog goroutine and waits for it.
func (p *pass) close() {
	close(p.stopDog)
	<-p.dogDone
}

// opStart/opEnd bracket one watched operation of driver i.
func (p *pass) opStart(i int) { p.watchdog[i].Store(time.Now().UnixNano()) }
func (p *pass) opEnd(i int)   { p.watchdog[i].Store(0) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// beginTimed/endTimed bracket one timed segment; only the coordinating
// goroutine of a workload calls them.
func (p *pass) beginTimed() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if len(p.refUs) == 0 {
		p.sampleSpeed()
	}
	p.segAlloc, p.segCPU, p.segStart = ms.TotalAlloc, cpuTime(), time.Now()
	if p.tr != nil {
		p.tr.muted.Store(false)
	}
}

func (p *pass) endTimed() {
	d := time.Since(p.segStart)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.timed += d
	p.alloc += ms.TotalAlloc - p.segAlloc
	p.cpu += cpuTime() - p.segCPU
	p.segStart = time.Time{}
	if p.tr != nil {
		p.tr.muted.Store(true)
	}
}

// closeRate ends the phase decisions_per_s is taken from: the units so far.
// Without it the whole pass counts.
func (p *pass) closeRate() {
	p.mu.Lock()
	p.rateUnits = len(p.unitAt)
	p.mu.Unlock()
}

func (p *pass) addSetup(d time.Duration) {
	p.mu.Lock()
	p.setupS = append(p.setupS, d.Seconds())
	p.mu.Unlock()
}

// round books one re-optimization round as the epoch loop saw it.
func (p *pass) round(d time.Duration, err error) {
	p.mu.Lock()
	p.rounds++
	p.attempted++
	if err != nil {
		p.failed++
	} else {
		p.roundMs = append(p.roundMs, ms(d))
		p.roundAt = append(p.roundAt, len(p.unitAt))
	}
	p.mu.Unlock()
}

// decision books one request outcome: sent (or due) → visible to the tenant.
func (p *pass) decision(d time.Duration, err error) {
	p.mu.Lock()
	p.attempted++
	if err != nil {
		p.failed++
	} else {
		p.decisions++
		p.decisionMs = append(p.decisionMs, ms(d))
		p.decisionAt = append(p.decisionAt, len(p.unitAt))
	}
	p.mu.Unlock()
}

// decided books n correct decisions that carry no latency sample of their own
// (replayed by recovery, or made in a workload's throughput-only phase).
func (p *pass) decided(n int) {
	p.mu.Lock()
	p.decisions += n
	p.attempted += n
	p.mu.Unlock()
}

// fail books a failed operation that is neither a round nor a decision
// (a shed Submit, a failed restart).
func (p *pass) fail(what string, err error) {
	p.mu.Lock()
	p.attempted++
	p.failed++
	if len(p.notes) < 8 {
		p.notes = append(p.notes, fmt.Sprintf("%s: %v", what, err))
	}
	p.mu.Unlock()
}

// violate records a correctness check failure; any violation makes the pass
// incorrect and fails every operation of the workload.
func (p *pass) violate(format string, a ...interface{}) {
	p.mu.Lock()
	if len(p.violations) < 8 {
		p.violations = append(p.violations, fmt.Sprintf(format, a...))
	}
	p.mu.Unlock()
}

// recording reports whether the seam wrappers should record: on the traced
// pass, inside a timed segment.
func (p *pass) recording() bool { return p.tr != nil && !p.tr.muted.Load() }

// obs adds one sample to a per-layer series; a no-op on the untraced pass so
// call sites need no guard.
func (p *pass) obs(name string, v float64) {
	if p.tr == nil {
		return
	}
	p.mu.Lock()
	p.series[name] = append(p.series[name], v)
	p.mu.Unlock()
}

// add bumps a per-layer counter (traced pass only).
func (p *pass) add(name string, v float64) {
	if p.tr == nil {
		return
	}
	p.mu.Lock()
	p.counts[name] += v
	p.mu.Unlock()
}

// unit closes unit i: its fingerprint, the timed wall and the decisions so
// far, and a sample of the machine's speed. Only the goroutine that
// coordinates the workload calls it, between units and in unit order.
func (p *pass) unit(i int, fp string) {
	p.mu.Lock()
	for len(p.units) <= i {
		p.units = append(p.units, "")
	}
	p.units[i] = fp
	p.unitAt = append(p.unitAt, p.elapsedTimed().Seconds())
	p.unitDec = append(p.unitDec, p.decisions)
	p.mu.Unlock()
	p.sampleSpeed()
}

// elapsedTimed is the timed wall so far, including the open segment.
func (p *pass) elapsedTimed() time.Duration {
	if p.segStart.IsZero() {
		return p.timed
	}
	return p.timed + time.Since(p.segStart)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fingerprint hashes decision lines into a short hex digest.
type fingerprint struct{ h [32]byte }

func (f *fingerprint) line(format string, a ...interface{}) {
	s := fmt.Sprintf(format, a...)
	f.h = sha256.Sum256(append(f.h[:], s...))
}

func (f *fingerprint) String() string { return hex.EncodeToString(f.h[:8]) }

// combine folds per-unit fingerprints into the pass fingerprint.
func combine(units []string) string {
	var f fingerprint
	for _, u := range units {
		f.line("%s", u)
	}
	return f.String()
}

// procMetric reads one runtime/metrics float64 sample (0 when unsupported).
func procMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64()
	}
	return 0
}

// fsyncProbe measures the box's fsync cost: the median of 21 4 KiB
// write+fsync pairs on a file in dir, in microseconds.
func fsyncProbe(dir string) float64 {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var xs []float64
	for i := 0; i < 21; i++ {
		if _, err := f.Write(buf); err != nil {
			return 0
		}
		t := time.Now()
		if err := f.Sync(); err != nil {
			return 0
		}
		xs = append(xs, us(time.Since(t)))
	}
	return median(xs)
}

// splitmix64 is the seed mixer: unit seeds are drawn from vetted pools by a
// hash of (--seed, repetition, domain), so neighbouring --seed values share
// no more units than chance gives them.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func mix(seed int64, rep, dom int) uint64 {
	return splitmix64(splitmix64(uint64(seed)) ^ uint64(rep)<<20 ^ uint64(dom))
}
