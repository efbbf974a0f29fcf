package monitor

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
)

// Sample is one monitoring observation for a slice at a data-plane element.
type Sample struct {
	Slice   string  `json:"slice"`
	Metric  string  `json:"metric"` // e.g. "load_mbps", "cpu_cores", "prb_share"
	Element string  `json:"element"`
	Epoch   int     `json:"epoch"`
	Theta   int     `json:"theta"` // monitoring slot within the epoch
	Value   float64 `json:"value"`
}

// key identifies one stored series.
type key struct{ slice, metric, element string }

// LoadMetric is the canonical metric name for per-slice demand samples —
// the series the forecasting and yield-accounting loop consumes.
const LoadMetric = "load_mbps"

// BSElement names the monitoring element for radio site b ("bs0", "bs1",
// …): the convention every in-tree agent uses for per-BS load samples,
// and the key the closed-loop controller reads a slice's per-BS series
// back under (AppendEpochValues) to score them against the reservation
// vector.
func BSElement(b int) string {
	if b >= 0 && b < len(bsElements) {
		return bsElements[b]
	}
	return "bs" + strconv.Itoa(b)
}

// bsElements holds the first BSElement names ready-made: the closed loop
// asks for one per slice per BS per epoch.
var bsElements = func() [256]string {
	var names [256]string
	for b := range names {
		names[b] = "bs" + strconv.Itoa(b)
	}
	return names
}()

// point is one stored observation. The series key carries slice, metric and
// element, so a point is 24 bytes where a Sample is 72.
type point struct {
	epoch, theta int
	value        float64
}

// series is one key's retention window, a ring: buf grows geometrically to
// retain points and is then overwritten in place, oldest first, so a full
// series costs Add no allocation. head is the oldest point (0 until then).
type series struct {
	buf  []point
	head int
	// adds counts the points ever ingested; lateAt is adds as of the last
	// point older than its predecessor (0: none; agents report epoch by
	// epoch). An epoch-ordered window lets a read stop at the epoch's first
	// point instead of scanning the window; a late point has left it, and
	// the fast path is back, once retain further points have followed.
	adds, lateAt uint64
}

// at returns the i-th oldest point of the window.
func (r *series) at(i int) point {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

// ordered reports whether the window is in non-decreasing epoch order.
func (r *series) ordered() bool {
	return r.lateAt == 0 || r.adds-r.lateAt >= uint64(len(r.buf))
}

// add appends p to the window, overwriting the oldest point once the window
// holds retain.
func (r *series) add(p point, retain int) {
	n := len(r.buf)
	r.adds++
	if n > 0 && p.epoch < r.at(n-1).epoch {
		r.lateAt = r.adds
	}
	if n == retain {
		r.buf[r.head] = p
		if r.head++; r.head == n {
			r.head = 0
		}
		return
	}
	if n == cap(r.buf) {
		grown := make([]point, n, min(max(2*n, 4), retain))
		copy(grown, r.buf)
		r.buf = grown
	}
	r.buf = append(r.buf, p)
}

// span returns the positions [lo, hi) of the window a read of epoch walks
// for that epoch's points. On an epoch-ordered window it reads backwards from
// the newest point and stops at the first one older than the epoch, so a read
// costs the epoch's points, not the retention window; otherwise the span is
// the whole window.
func (r *series) span(epoch int) (lo, hi int) {
	hi = len(r.buf)
	if !r.ordered() {
		return 0, hi
	}
	for hi > 0 && r.at(hi-1).epoch > epoch {
		hi--
	}
	for lo = hi; lo > 0 && r.at(lo-1).epoch == epoch; lo-- {
	}
	return lo, hi
}

// Store is the in-memory time-series database. It retains a bounded number
// of samples per series (ring retention) and supports the per-epoch
// reads the AC-RR engine needs. Safe for concurrent use.
//
// One plain mutex guards it: every caller in the tree either ingests a burst
// or reads one series at a time, so a reader-writer lock's extra atomics
// bought no parallelism.
type Store struct {
	mu     sync.Mutex
	retain int
	series map[key]*series
	// cur is the series the last Add wrote, under curKey: a burst of one
	// series' slots (every in-tree agent reports θ by θ) skips the map.
	curKey key
	cur    *series
	// sorted is the scratch epochPoints collects and sorts an epoch's
	// points in.
	sorted []point
}

// NewStore creates a store retaining up to retain samples per series
// (0 means 4096); a series' ring grows with its samples, never pre-sized.
func NewStore(retain int) *Store {
	if retain <= 0 {
		retain = 4096
	}
	return &Store{retain: retain, series: make(map[key]*series)}
}

// Add ingests a sample.
func (s *Store) Add(sm Sample) {
	s.mu.Lock()
	r := s.cur
	if r == nil || sm.Element != s.curKey.element || sm.Slice != s.curKey.slice || sm.Metric != s.curKey.metric {
		k := key{sm.Slice, sm.Metric, sm.Element}
		if r = s.series[k]; r == nil {
			r = &series{}
			s.series[k] = r
		}
		s.curKey, s.cur = k, r
	}
	r.add(point{sm.Epoch, sm.Theta, sm.Value}, s.retain)
	s.mu.Unlock()
}

// AppendEpochValues appends to dst the values one (slice, metric, element)
// series holds for the given epoch, in (theta, value) order so any
// accounting folded over them is deterministic regardless of ingest
// interleaving, and returns the extended slice; a caller that passes the
// same buffer again (dst[:0]) reads without allocating. It is the closed
// loop's read: a single series lookup and the span's walk (series.span),
// with the order checked on the points as they are copied; the points are
// sorted, in the store's scratch, only when they arrived out of order.
// Every in-tree agent's window is ordered both ways.
func (s *Store) AppendEpochValues(dst []float64, slice, metric, element string, epoch int) []float64 {
	s.mu.Lock()
	if r := s.series[key{slice, metric, element}]; r != nil {
		from, inOrder, last := len(dst), true, point{}
		lo, hi := r.span(epoch)
		for i := lo; i < hi; i++ {
			if p := r.at(i); p.epoch == epoch {
				if len(dst) > from && bySlot(p, last) < 0 {
					inOrder = false
				}
				dst, last = append(dst, p.value), p
			}
		}
		if !inOrder {
			for i, p := range s.epochPoints(r, epoch) {
				dst[from+i] = p.value
			}
		}
	}
	s.mu.Unlock()
	return dst
}

// epochPoints collects r's points of epoch into the store's scratch, sorted
// by (theta, value). The caller holds s.mu and reads the result before
// releasing it.
func (s *Store) epochPoints(r *series, epoch int) []point {
	lo, hi := r.span(epoch)
	pts := s.sorted[:0]
	for i := lo; i < hi; i++ {
		if p := r.at(i); p.epoch == epoch {
			pts = append(pts, p)
		}
	}
	if !slices.IsSortedFunc(pts, bySlot) {
		slices.SortFunc(pts, bySlot)
	}
	s.sorted = pts
	return pts
}

// bySlot orders one series' points of one epoch by (theta, value).
func bySlot(a, b point) int {
	switch {
	case a.theta != b.theta:
		return cmp.Compare(a.theta, b.theta)
	case a.value < b.value:
		return -1
	case b.value < a.value:
		return 1
	}
	return 0
}

// ElementEpochSamples returns the samples one (slice, metric, element)
// series holds for the given epoch, in a fresh slice (nil when there are
// none), in the order AppendEpochValues reads their values.
func (s *Store) ElementEpochSamples(slice, metric, element string, epoch int) []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.series[key{slice, metric, element}]
	if r == nil {
		return nil
	}
	pts := s.epochPoints(r, epoch)
	if len(pts) == 0 {
		return nil
	}
	out := make([]Sample, len(pts))
	for i, p := range pts {
		out[i] = Sample{Slice: slice, Metric: metric, Element: element, Epoch: epoch, Theta: p.theta, Value: p.value}
	}
	return out
}

// Collector receives JSON-encoded samples over UDP and ingests them into a
// Store, mirroring an sFlow collector front-ending InfluxDB.
type Collector struct {
	store *Store
	conn  *net.UDPConn
	wg    sync.WaitGroup

	mu      sync.Mutex
	dropped int
}

// NewCollector starts a collector on addr (e.g. "127.0.0.1:0"). Close it
// when done.
func NewCollector(addr string, store *Store) (*Collector, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("monitor: listen: %w", err)
	}
	c := &Collector{store: store, conn: conn}
	c.wg.Add(1)
	go c.loop()
	return c, nil
}

// Addr returns the collector's bound UDP address, for agents to dial.
func (c *Collector) Addr() string { return c.conn.LocalAddr().String() }

// Dropped reports datagrams that failed to decode.
func (c *Collector) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Close stops the receive loop and releases the socket.
func (c *Collector) Close() error {
	err := c.conn.Close()
	c.wg.Wait()
	return err
}

func (c *Collector) loop() {
	defer c.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, _, err := c.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		var sm Sample
		if err := json.Unmarshal(buf[:n], &sm); err != nil {
			c.mu.Lock()
			c.dropped++
			c.mu.Unlock()
			continue
		}
		c.store.Add(sm)
	}
}
