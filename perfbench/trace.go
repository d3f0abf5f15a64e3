package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// request share Req; Parent is the span that caused this one (0 for a
// root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Spans are recorded
// only around calls the benchmark itself makes, including the server
// handler it installs.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its ID; finish records it.
func (t *tracer) open() (id uint64, start int64) {
	return t.nextID.Add(1), t.now()
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) finish(id, parent, req uint64, name, layer string, start int64) {
	t.add(span{ID: id, Parent: parent, Req: req, Name: name, Layer: layer, Start: start, End: t.now()})
}

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do records fn as a span named name in layer under parent.
func (t *tracer) do(parent, req uint64, name, layer string, fn func() error) error {
	id, start := t.open()
	err := fn()
	t.finish(id, parent, req, name, layer, start)
	return err
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// readSpans loads a span file and checks that every parent resolves.
func readSpans(path string) ([]span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		return nil, fmt.Errorf("span file %s: %w", path, err)
	}
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			return nil, fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	return spans, nil
}

// traceLayers are the layers whose self time a traced run reports.
var traceLayers = []string{"bench", "service", "streammux", "server", "rcds.client"}

// selfTimes returns, per layer, the self time of its spans among the
// roots named rootName, summed and divided by the number of such roots:
// a span's self time is its duration minus the part of it that its
// children cover.
func selfTimes(spans []span, rootName string) (map[string]float64, int) {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	roots := 0
	var walk func(s span)
	walk = func(s span) {
		out[s.Layer] += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e3
		for _, c := range children[s.ID] {
			walk(c)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == rootName {
			roots++
			walk(s)
		}
	}
	if roots > 0 {
		for l := range out {
			out[l] /= float64(roots)
		}
	}
	return out, roots
}

// covered is the length of the union of the children's intervals,
// clipped to s.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}
