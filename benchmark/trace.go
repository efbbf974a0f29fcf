package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one traced interval at a layer boundary. Spans of one request or
// round share ID (workload/domain/seq, plus the request name for a
// decision); Parent names the enclosing span under the same ID ("" for a
// root). Start and End are nanoseconds from the start of the pass.
type Span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds the spans of a traced pass in memory; they are written out
// once, after the pass ends.
type tracer struct {
	t0 time.Time

	// muted suppresses recording while a workload runs untimed operations
	// (warm-up, log extension): their log and solve calls have no timed round
	// to hang under. beginTimed/endTimed flip it.
	muted atomic.Bool
	// rootOnly makes the wrappers record their spans as roots: the open-loop
	// phase's rounds are cut by the engine's timer, so no driver-side round
	// span exists to parent them.
	rootOnly atomic.Bool

	mu    sync.Mutex
	spans []Span
	// cur maps a goroutine to the span (id, parent) it last appended a log
	// record for: the engine's RoundLog.SyncRound carries no domain, so the
	// log wrapper files the sync with what the same goroutine just appended.
	cur map[uint64][2]string
}

func (t *tracer) span(name, id, parent string, start, end time.Time) {
	if t.muted.Load() {
		return
	}
	if parent == "round" && t.rootOnly.Load() {
		parent = ""
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

func (t *tracer) setCur(id, parent string) {
	g := goid()
	t.mu.Lock()
	t.cur[g] = [2]string{id, parent}
	t.mu.Unlock()
}

func (t *tracer) getCur() (id, parent string) {
	g := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cur[g]
	return c[0], c[1]
}

// goid parses the current goroutine's id out of its stack header
// ("goroutine 123 [running]:"). Used on the traced pass only.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		n, _ := strconv.ParseUint(string(b[:i]), 10, 64)
		return n
	}
	return 0
}

func roundID(workload, domain string, seq uint64) string {
	return workload + "/" + domain + "/" + strconv.FormatUint(seq, 10)
}

// spanTree is the resolved trace: each span's parent index (-1 for a root)
// and its self time (duration minus the part its children cover).
type spanTree struct {
	spans  []Span
	parent []int
	self   []int64
}

// resolve links every span to its parent — the span named Parent under the
// same ID — and computes self times. It reports the first structural defect:
// a missing parent, a child outside its parent's interval (beyond slack), or
// a negative duration.
func resolve(spans []Span) (*spanTree, error) {
	const slack = int64(200 * time.Microsecond) // clock reads on two goroutines
	type key struct{ name, id string }
	index := make(map[key]int, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %s %s ends before it starts", s.Name, s.ID)
		}
		index[key{s.Name, s.ID}] = i
	}
	t := &spanTree{spans: spans, parent: make([]int, len(spans)), self: make([]int64, len(spans))}
	children := make([][]int, len(spans))
	for i, s := range spans {
		t.parent[i] = -1
		if s.Parent == "" {
			continue
		}
		pi, ok := index[key{s.Parent, s.ID}]
		if !ok {
			return nil, fmt.Errorf("span %s %s: parent %s not recorded", s.Name, s.ID, s.Parent)
		}
		if pi == i {
			return nil, fmt.Errorf("span %s %s is its own parent", s.Name, s.ID)
		}
		ps := spans[pi]
		if s.Start < ps.Start-slack || s.End > ps.End+slack {
			return nil, fmt.Errorf("span %s %s [%d,%d] lies outside its parent %s [%d,%d]",
				s.Name, s.ID, s.Start, s.End, ps.Name, ps.Start, ps.End)
		}
		t.parent[i] = pi
		children[pi] = append(children[pi], i)
	}
	for i, s := range spans {
		// Children of one span may overlap (two southbound calls in
		// flight); self time subtracts the union of their intervals.
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		t.self[i] = (s.End - s.Start) - covered
	}
	return t, nil
}

// layerTime sums one span name's total and self time. RoundSelfMs counts only
// the spans that hang under a `round` root — the part of the layer's self
// time that the layer budget may set against the time spent in rounds.
type layerTime struct {
	Name        string  `json:"name"`
	Count       int     `json:"count"`
	TotalMs     float64 `json:"total_ms"`
	SelfMs      float64 `json:"self_ms"`
	RoundSelfMs float64 `json:"round_self_ms"`
}

func (t *spanTree) budget() []layerTime {
	by := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		lt.Count++
		lt.TotalMs += float64(s.End-s.Start) / 1e6
		lt.SelfMs += float64(t.self[i]) / 1e6
		root := i
		for t.parent[root] >= 0 {
			root = t.parent[root]
		}
		if t.spans[root].Name == "round" {
			lt.RoundSelfMs += float64(t.self[i]) / 1e6
		}
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// traceFile is what a traced pass writes to benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Budget   []layerTime `json:"budget"`
	Spans    []Span      `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, t *spanTree) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Budget: t.budget(), Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
