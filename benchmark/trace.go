package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/cmdio"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call: name, start and end since the run began, the span
// that caused it (-1 for none) and the request it served (-1 for none),
// plus the counts the call returned.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Req    int64   `json:"req"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Self   int64   `json:"self_ns"`
	Counts []tally `json:"counts,omitempty"`
}

// tally is one named count attached to a span.
type tally struct {
	Name string `json:"name"`
	N    int64  `json:"n"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// count returns the span's count of the given name (0 when absent).
func (s *span) count(name string) int64 {
	for _, c := range s.Counts {
		if c.Name == name {
			return c.N
		}
	}
	return 0
}

// recorder keeps the spans of a traced run in memory. A nil recorder
// records nothing, so untraced runs call the same code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes span id with the counts its call returned.
func (r *recorder) end(id int, cs ...tally) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	r.spans[id].Counts = cs
}

// timed records fn as one span.
func (r *recorder) timed(name string, parent int, req int64, fn func() error) error {
	id := r.begin(name, parent, req)
	err := fn()
	r.end(id)
	return err
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// named returns the closed spans with the given name, in start order.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes fills in each span's self time: its duration minus the part
// of it that its child spans cover.
func selfTimes(spans []span) {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k[0], at), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// dump computes self times and writes every span, one JSON object per
// line, to .bench_build/trace/<workload>-seed<seed>.jsonl.
func (r *recorder) dump(workload string, seed int64) (string, error) {
	r.mu.Lock()
	spans := slices.Clone(r.spans)
	r.mu.Unlock()
	selfTimes(spans)
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	err := cmdio.AtomicWriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for i := range spans {
			if err := enc.Encode(&spans[i]); err != nil {
				return err
			}
		}
		return nil
	})
	return path, err
}

// durations returns the durations of spans in unit.
func durations(spans []span, unit time.Duration) []float64 {
	out := make([]float64, len(spans))
	for i := range spans {
		out[i] = float64(spans[i].dur()) / float64(unit)
	}
	return out
}
