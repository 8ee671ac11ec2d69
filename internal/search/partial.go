// Partial execution for distributed serving.
//
// A shard server owns a contiguous run of corpus segments and therefore
// a contiguous range of global table numbers. ExecutePartial runs the
// ordinary pipeline over the shard's view — scan ranges into
// per-cluster summaries, merge them — and exports the merged summaries
// instead of a ranked page: one PartialGroup per answer cluster.
// MergePartials sums the shards' summaries with the same merge step the
// in-process pipeline uses (parallel.go) and selects the page with the
// same selectPage. Because scores are fixed-point units (ScoreScale),
// a cluster's merged score, support, dominant surface form and
// canonical sources do not depend on how the corpus was split, so the
// merged page equals a single node's.
//
// Cluster identity travels with each summary so the merger needs no
// catalog: entity clusters carry their ID and canonical name (identical
// on every shard — all shards load the same frozen catalog), text
// clusters carry their normalized key and raw-form counts.
package search

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/catalog"
)

// Variant is one raw surface form of a text cluster with its occurrence
// count.
type Variant struct {
	Raw   string
	Count int
}

// PartialGroup is one answer cluster's summary over a shard's slice of
// the corpus.
type PartialGroup struct {
	// Entity identifies entity clusters; catalog.None for text clusters.
	Entity catalog.EntityID
	// Norm is the text cluster's normalized aggregation key (empty for
	// entity clusters).
	Norm string
	// Canonical is the entity's catalog name (empty for text clusters),
	// carried so the merger can present answers without a catalog.
	Canonical string
	// Score is the cluster's evidence in units of 1/ScoreScale.
	Score int64
	// Support counts the cluster's contributing rows.
	Support int
	// Variants counts the cluster's raw surface forms, ascending by Raw
	// (text clusters only).
	Variants []Variant
	// Sources is the cluster's provenance when the request explains: at
	// most MaxExplainSources sources in canonical order, with
	// cluster-global table numbers.
	Sources []SourceRef
}

// Key returns the cluster's aggregation key, matching the single-node
// "e:<id>" / "t:<norm>" identity. A shard's groups ascend by Key.
func (g *PartialGroup) Key() string {
	if g.Entity != catalog.None {
		return "e:" + strconv.Itoa(int(g.Entity))
	}
	return "t:" + g.Norm
}

// ValidateCursor checks that s is a well-formed pagination cursor
// without executing anything; the error wraps ErrInvalidCursor exactly
// as Execute would report it. An empty cursor is valid (start at the
// top). Routers use it to reject bad cursors before fanning out.
func ValidateCursor(s string) error {
	_, err := decodeAfter(s)
	return err
}

// ExecutePartial runs req over this engine's corpus — a shard's subset
// view — and exports the merged cluster summaries instead of a ranked
// page, ascending by Key. tableOffset is the number of live tables
// owned by preceding shards; it shifts source table numbers into the
// cluster-global numbering so merged explanations match a single node.
// PageSize and Cursor are ignored (they are merge-time concerns); the
// request is otherwise validated as Execute validates it, and Explain
// makes each summary carry its sources.
//
// The returned ExecStats carries the shard-local cost (pairs, rows,
// segments, validate/plan/scan/aggregate time); select and explain
// happen in MergePartials, which sums the shard stats and adds its own.
func (e *Engine) ExecutePartial(ctx context.Context, req Request, tableOffset int) ([]PartialGroup, *ExecStats, error) {
	st, p, err := e.start(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	cs, err := e.collect(ctx, p, req.Explain, st)
	if err != nil {
		return nil, nil, err
	}
	keys := make([]string, 0, len(cs))
	for k := range cs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]PartialGroup, len(keys))
	for i, k := range keys {
		out[i] = cs[k].partial(tableOffset)
	}
	return out, st, nil
}

// partial exports the cluster as a PartialGroup, shifting source table
// numbers by tableOffset.
func (c *cluster) partial(tableOffset int) PartialGroup {
	g := PartialGroup{Entity: c.entity, Canonical: c.canonical, Score: c.score, Support: c.support}
	if c.entity == catalog.None {
		g.Norm = c.key[len("t:"):]
		g.Variants = make([]Variant, 0, len(c.variants))
		for raw, n := range c.variants {
			g.Variants = append(g.Variants, Variant{Raw: raw, Count: n})
		}
		sort.Slice(g.Variants, func(i, j int) bool { return g.Variants[i].Raw < g.Variants[j].Raw })
	}
	for _, s := range c.sources {
		s.Table += tableOffset
		g.Sources = append(g.Sources, s)
	}
	return g
}

// MergePartials merges per-shard cluster summaries into one result
// page, identical to a single-node Execute over the whole corpus: the
// summaries are summed per cluster, then page selection, cursors,
// totals and explanations run through the same code Execute uses. The
// inputs are not modified.
//
// shards holds each shard's groups (a shard with no matching evidence
// contributes none); their order does not matter. shardStats carries
// each shard's ExecStats; the merged Result.Stats sums them and adds the
// merge's own aggregate/select/explain time.
func MergePartials(shards [][]PartialGroup, shardStats []ExecStats, pageSize int, cursor string, explain bool) (*Result, error) {
	if pageSize < 0 {
		return nil, fmt.Errorf("%w: %d", ErrInvalidPageSize, pageSize)
	}
	after, err := decodeAfter(cursor)
	if err != nil {
		return nil, err
	}
	st := MergeExecStats(shardStats)
	t0 := time.Now()
	cs := make(map[string]*cluster)
	for _, groups := range shards {
		for i := range groups {
			g := &groups[i]
			c := &cluster{
				key: g.Key(), entity: g.Entity, canonical: g.Canonical,
				score: g.Score, support: g.Support,
				sources: append([]SourceRef(nil), g.Sources...),
			}
			if g.Entity == catalog.None {
				c.variants = make(map[string]int, len(g.Variants))
				for _, v := range g.Variants {
					c.noteRaw(v.Raw, v.Count)
				}
			}
			mergeInto(cs, c)
		}
	}
	st.Stage.Aggregate += int64(time.Since(t0))
	return finish(context.Background(), cs, pageSize, after, explain, &st), nil
}
