package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary, kept in memory and written
// out when the run ends. A span with N > 1 folds N calls of one kind made
// inside its parent (per-event calls such as core.Decide, which would be too
// many to keep one by one): Start and End are then the first call's start and
// the last call's end, and Busy is the summed duration of the calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a lane root
	Name   string `json:"name"`   // <layer>.<operation>
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
	Busy   int64  `json:"busy_ns"`
	Self   int64  `json:"self_ns"` // filled in by attribute
}

func (s span) folded() bool { return s.N > 1 || s.Busy != s.End-s.Start }

// tracer collects spans. Times are nanoseconds since the tracer started.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.t0).Nanoseconds() }

// interval records one call from start to end and returns its id.
func (t *tracer) interval(parent int, name string, start, end time.Time) int {
	s, e := t.at(start), t.at(end)
	return t.add(span{Parent: parent, Name: name, Start: s, End: e, N: 1, Busy: e - s})
}

// fold records n calls made inside parent, first starting at start and last
// ending at end, that took busy in total. It records nothing for n == 0.
func (t *tracer) fold(parent int, name string, n int, start, end time.Time, busy time.Duration) {
	if n == 0 {
		return
	}
	t.add(span{Parent: parent, Name: name, Start: t.at(start), End: t.at(end), N: n, Busy: busy.Nanoseconds()})
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// attribute computes every span's self time and returns the summed self time
// per span name. Within a lane (the tree under one root, one goroutine's
// timeline) each instant belongs to exactly one interval span: the deepest
// one active, and among siblings that overlap (a store append running beside
// a cell) the one that started last. A folded span's busy time is then moved
// from its parent's self time to its own. Self times of a lane therefore add
// up to the lane's duration.
func (t *tracer) attribute() map[string]int64 {
	byID := make([]*span, len(t.spans)+1)
	depth := make([]int, len(t.spans)+1)
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = 0
		byID[s.ID] = s
		if s.Parent != 0 {
			depth[s.ID] = depth[s.Parent] + 1 // parents are recorded first
		}
	}
	type edge struct {
		at    int64
		start bool
		id    int
	}
	lanes := map[int][]edge{} // by root span id
	root := make([]int, len(t.spans)+1)
	for _, s := range t.spans {
		root[s.ID] = s.ID
		if s.Parent != 0 {
			root[s.ID] = root[s.Parent]
		}
		if !s.folded() && s.End > s.Start {
			r := root[s.ID]
			lanes[r] = append(lanes[r], edge{s.Start, true, s.ID}, edge{s.End, false, s.ID})
		}
	}
	for _, edges := range lanes {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].at != edges[j].at {
				return edges[i].at < edges[j].at
			}
			return !edges[i].start && edges[j].start // close before open at a tie
		})
		// The active set stays tiny (a lane root, a cell, a call, its
		// server span), so a slice scan beats a heap.
		var active []int
		var last int64
		for _, e := range edges {
			best := 0
			for _, id := range active {
				if best == 0 || depth[id] > depth[best] || (depth[id] == depth[best] && byID[id].Start >= byID[best].Start) {
					best = id
				}
			}
			if best != 0 {
				byID[best].Self += e.at - last
			}
			last = e.at
			if e.start {
				active = append(active, e.id)
				continue
			}
			for k, id := range active {
				if id == e.id {
					active = append(active[:k], active[k+1:]...)
					break
				}
			}
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if !s.folded() {
			continue
		}
		p := byID[s.Parent]
		moved := s.Busy
		if moved > p.Self {
			moved = p.Self
		}
		p.Self -= moved
		s.Self = moved
	}
	self := map[string]int64{}
	for _, s := range t.spans {
		self[s.Name] += s.Self
	}
	return self
}

// writeJSONL stores items as JSON lines in path, creating its directory.
func writeJSONL[T any](path string, items []T) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			_ = f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
