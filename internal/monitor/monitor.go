package monitor

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
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
// back under (ElementEpochSamples) to score them against the reservation
// vector.
func BSElement(b int) string {
	if b >= 0 && b < len(bsElements) {
		return bsElements[b]
	}
	return "bs" + strconv.Itoa(b)
}

// bsElements holds the first BSElement names ready-made: the settle and
// observe phases ask for one per slice per BS per epoch.
var bsElements = func() [256]string {
	var names [256]string
	for b := range names {
		names[b] = "bs" + strconv.Itoa(b)
	}
	return names
}()

// Store is the in-memory time-series database. It retains a bounded number
// of samples per series (ring retention) and supports the per-epoch
// aggregations the AC-RR engine needs. Safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	retain int
	series map[key][]Sample
	// unordered marks the series that received a sample older than its
	// predecessor. Agents report epoch by epoch, so none normally does, and
	// an ordered series lets a per-epoch read stop at the epoch's first
	// sample instead of scanning the retention window.
	unordered map[key]bool
}

// NewStore creates a store retaining up to retain samples per series
// (0 means 4096).
func NewStore(retain int) *Store {
	if retain <= 0 {
		retain = 4096
	}
	return &Store{retain: retain, series: make(map[key][]Sample)}
}

// Add ingests a sample.
func (s *Store) Add(sm Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := key{sm.Slice, sm.Metric, sm.Element}
	ser := s.series[k]
	if n := len(ser); n > 0 && sm.Epoch < ser[n-1].Epoch {
		if s.unordered == nil {
			s.unordered = make(map[key]bool)
		}
		s.unordered[k] = true
	}
	ser = append(ser, sm)
	if len(ser) > s.retain {
		ser = ser[len(ser)-s.retain:]
	}
	s.series[k] = ser
}

// EpochPeak returns max{λ(θ)} for the slice/metric over every element in
// the given epoch — the conservative aggregation of §2.2.2 — and false when
// the epoch holds no samples.
func (s *Store) EpochPeak(slice, metric string, epoch int) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	peak, ok := 0.0, false
	for k, ser := range s.series {
		if k.slice != slice || k.metric != metric {
			continue
		}
		for _, sm := range ser {
			if sm.Epoch == epoch {
				if !ok || sm.Value > peak {
					peak, ok = sm.Value, true
				}
			}
		}
	}
	return peak, ok
}

// ElementEpochSamples returns the samples one (slice, metric, element)
// series holds for the given epoch, sorted by (theta, value) so any
// accounting folded over it is deterministic regardless of ingest
// interleaving. It is a single series lookup, and on a series ingested in
// epoch order (every in-tree agent's) it reads backwards from the newest
// sample and stops at the first one older than the epoch, so per-slice
// accounting loops — the closed loop's settle phase runs one per committed
// slice per BS per epoch — cost the epoch's samples, not the series'
// retention window.
func (s *Store) ElementEpochSamples(slice, metric, element string, epoch int) []Sample {
	k := key{slice, metric, element}
	s.mu.RLock()
	ser := s.series[k]
	var out []Sample
	if s.unordered[k] {
		for _, sm := range ser {
			if sm.Epoch == epoch {
				out = append(out, sm)
			}
		}
	} else {
		hi := len(ser)
		for hi > 0 && ser[hi-1].Epoch > epoch {
			hi--
		}
		lo := hi
		for lo > 0 && ser[lo-1].Epoch == epoch {
			lo--
		}
		out = append(out, ser[lo:hi]...)
	}
	s.mu.RUnlock()
	slices.SortFunc(out, func(a, b Sample) int {
		switch {
		case a.Theta != b.Theta:
			return cmp.Compare(a.Theta, b.Theta)
		case a.Value < b.Value:
			return -1
		case b.Value < a.Value:
			return 1
		}
		return 0
	})
	return out
}

// PeakSeries returns the per-epoch peaks for a slice/metric over the
// inclusive epoch range, suitable for feeding a forecaster. Epochs with no
// samples yield zeros.
func (s *Store) PeakSeries(slice, metric string, from, to int) []float64 {
	out := make([]float64, 0, to-from+1)
	for e := from; e <= to; e++ {
		v, _ := s.EpochPeak(slice, metric, e)
		out = append(out, v)
	}
	return out
}

// Slices lists the slice names present in the store, sorted.
func (s *Store) Slices() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := map[string]bool{}
	for k := range s.series {
		set[k.slice] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of stored samples across all series.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, ser := range s.series {
		n += len(ser)
	}
	return n
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

// Agent pushes samples to a collector over UDP — the role sFlow agents and
// Ceilometer publishers play on the paper's switches and CUs.
type Agent struct {
	conn net.Conn
}

// NewAgent dials the collector.
func NewAgent(collectorAddr string) (*Agent, error) {
	conn, err := net.DialTimeout("udp", collectorAddr, time.Second)
	if err != nil {
		return nil, fmt.Errorf("monitor: dial collector: %w", err)
	}
	return &Agent{conn: conn}, nil
}

// Send publishes one sample; UDP semantics apply (fire and forget).
func (a *Agent) Send(sm Sample) error {
	b, err := json.Marshal(sm)
	if err != nil {
		return err
	}
	_, err = a.conn.Write(b)
	return err
}

// Close releases the socket.
func (a *Agent) Close() error { return a.conn.Close() }
