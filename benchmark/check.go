package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	webtable "repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/worldgen"
)

// checker tallies checked operations. Every HTTP response and every
// final-state check counts as one attempted operation; a refused,
// failed or mismatching one also counts as failed.
type checker struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	firstBad string
}

// ok records one operation's outcome; detail describes a failure and is
// only called for the first one.
func (c *checker) ok(ok bool, detail func() string) bool {
	c.attempted.Add(1)
	if ok {
		return true
	}
	if c.failed.Add(1) == 1 {
		d := detail()
		c.mu.Lock()
		c.firstBad = d
		c.mu.Unlock()
	}
	return false
}

// first returns the description of the first failure.
func (c *checker) first() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstBad
}

// searchResponse checks one search response against the bytes a single
// node must answer with.
func (c *checker) searchResponse(status int, got, want []byte, err error) bool {
	return c.ok(err == nil && status == 200 && bytes.Equal(got, want), func() string {
		if err != nil {
			return err.Error()
		}
		return fmt.Sprintf("search: HTTP %d, got %q, want %q", status, clip(got), clip(want))
	})
}

func clip(b []byte) []byte {
	if len(b) > 300 {
		return b[:300]
	}
	return b
}

// expectResponse returns the exact bytes a single node answers body
// with: the wire request resolved as the server resolves it, executed
// in-process, converted by ToSearchResponse and encoded as the server
// encodes it.
func expectResponse(ctx context.Context, svc *webtable.Service, body []byte) ([]byte, *webtable.SearchResult, error) {
	var wr server.SearchRequest
	if err := server.DecodeJSON(bytes.NewReader(body), &wr); err != nil {
		return nil, nil, err
	}
	req, err := wr.Resolve(svc)
	if err != nil {
		return nil, nil, err
	}
	res, err := svc.Search(ctx, req)
	if err != nil {
		return nil, nil, fmt.Errorf("search %s: %w", body, err)
	}
	enc, err := encodeResponse(svc.Catalog(), res)
	return enc, res, err
}

// encodeResponse is the server's response encoding of one result.
func encodeResponse(cat *webtable.Catalog, res *webtable.SearchResult) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(server.ToSearchResponse(cat, res)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// snapshotAnnotations reads the per-table annotations a snapshot holds,
// keyed by table ID, skipping tombstoned tables.
func snapshotAnnotations(snap []byte) (map[string]*core.Annotation, error) {
	s, err := snapshot.Load(bytes.NewReader(snap))
	if err != nil {
		return nil, err
	}
	out := make(map[string]*core.Annotation)
	for i, t := range s.Tables {
		if s.Anns != nil {
			out[t.ID] = s.Anns[i]
		}
	}
	for _, seg := range s.Segments {
		dead := make(map[int]bool, len(seg.Dead))
		for _, d := range seg.Dead {
			dead[d] = true
		}
		for i, t := range seg.Tables {
			if seg.Anns != nil && !dead[i] {
				out[t.ID] = seg.Anns[i]
			}
		}
	}
	return out, nil
}

// entityAccuracy is the cell-entity accuracy of the annotations in anns
// over the labeled tables, against their worldgen ground truth. A table
// missing from anns counts as a failed check.
func (c *checker) entityAccuracy(anns map[string]*core.Annotation, tables []worldgen.LabeledTable) float64 {
	var sum eval.Counts
	for _, lt := range tables {
		ann := anns[lt.Table.ID]
		if !c.ok(ann != nil, func() string { return "snapshot lacks annotations of table " + lt.Table.ID }) {
			continue
		}
		sum.Add(eval.EntityCells(ann, lt.GT))
	}
	return sum.Accuracy()
}

// sameAnnotation reports whether two annotations label a table
// identically (timings aside).
func sameAnnotation(a, b *core.Annotation) bool {
	if a.TableID != b.TableID || len(a.ColumnTypes) != len(b.ColumnTypes) ||
		len(a.CellEntities) != len(b.CellEntities) || len(a.Relations) != len(b.Relations) {
		return false
	}
	for i := range a.ColumnTypes {
		if a.ColumnTypes[i] != b.ColumnTypes[i] {
			return false
		}
	}
	for r := range a.CellEntities {
		if len(a.CellEntities[r]) != len(b.CellEntities[r]) {
			return false
		}
		for c := range a.CellEntities[r] {
			if a.CellEntities[r][c] != b.CellEntities[r][c] {
				return false
			}
		}
	}
	for i := range a.Relations {
		if a.Relations[i] != b.Relations[i] {
			return false
		}
	}
	return true
}

// meanAveragePrecision is the MAP of the full TypeRel rankings of the
// queries against SearchQuery.WantE1, computed with eval.AveragePrecision
// exactly as the Figure 9 reproduction computes it.
func meanAveragePrecision(ctx context.Context, svc *webtable.Service, w *worldgen.World, queries []worldgen.SearchQuery) (float64, error) {
	aps := make([]float64, 0, len(queries))
	for _, q := range queries {
		res, err := svc.Search(ctx, w.Request(q, webtable.SearchTypeRel, 0))
		if err != nil {
			return 0, err
		}
		ranked := make([]string, len(res.Answers))
		for i, a := range res.Answers {
			ranked[i] = a.Text
		}
		aps = append(aps, eval.AveragePrecision(ranked, q.WantE1, w.True))
	}
	return eval.MeanAveragePrecision(aps), nil
}
