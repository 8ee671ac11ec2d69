// Parallel query execution: one partial-and-merge pipeline.
//
// Execute's candidate pair list is cut into contiguous ranges; each
// range is scanned into its own per-cluster summaries (rangeSink), and
// the summaries are merged (mergeInto). The serial path is the
// one-range case. A shard server runs exactly the same code over its
// slice of the corpus and ships the merged summaries to the router,
// whose MergePartials uses the same merge step (partial.go).
//
// Merging summaries reproduces the serial result exactly because every
// part of a summary merges order-independently:
//
//   - scores are fixed-point: each hit's evidence is quantized once to
//     int64 units of 2⁻³² (ScoreScale), and integer sums do not depend
//     on the order of addition (float sums do: (a+b)+c and a+(b+c) can
//     differ in the last bit);
//   - support and surface-form counts are integer sums, and the
//     dominant form depends only on the final counts;
//   - explanations keep the first MaxExplainSources sources in the
//     canonical order (table, row, col, score), and the canonical prefix
//     of a union is the canonical prefix of the parts' prefixes.
//
// One hit is under 2³³ units, so an int64 score holds more than 2³⁰
// hits per cluster. Presented scores are float64(units)/2³², exact
// below 2⁵³ units; they differ from a float sum of the raw evidence in
// the low-order digits.
//
// Range boundaries are a pure load-balancing choice — they never affect
// results. The plan is over-partitioned (shardsPerWorker ranges per
// worker) and workers pull ranges from a shared counter, so a range
// with unusually large tables does not stall the pool. When the corpus
// is segmented (segment.View implements SegmentedCorpus), interior
// boundaries snap to the nearest segment edge within half an ideal
// range, so a range's cells resolve against one segment's postings
// where possible.
package search

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// shardsPerWorker over-partitions the candidate list so the worker pool
// can rebalance when shards carry unequal row counts.
const shardsPerWorker = 4

// SegmentedCorpus is an optional Corpus extension for corpora assembled
// from ordered segments. ShardStarts returns the ascending global table
// number at which each segment begins (the first is always 0); the
// engine uses it to align parallel shard boundaries with segment edges.
type SegmentedCorpus interface {
	Corpus
	ShardStarts() []int
}

// cuts returns the shard boundaries of a plan for this engine's
// parallelism: [0, n] (one shard — the serial path) when parallelism is
// 1 or there is nothing to split, else up to parallelism*shardsPerWorker
// contiguous ranges.
func (e *Engine) cuts(p *scanPlan) []int {
	n := p.len()
	if e.par <= 1 || n < 2 {
		return []int{0, n}
	}
	var starts []int
	if sc, ok := e.c.(SegmentedCorpus); ok {
		starts = sc.ShardStarts()
	}
	return shardCuts(n, e.par*shardsPerWorker, p.tableOf, starts)
}

// shardCuts partitions n ordered candidate pairs into at most shards
// contiguous ranges, returning the ascending boundary indices
// (cuts[0]=0, cuts[len-1]=n). tableOf(i) is pair i's global table
// number. segStarts, when it lists more than one segment, holds the
// ascending global table numbers beginning each corpus segment; each
// interior cut then snaps to the nearest pair index whose owning
// segment differs from its predecessor's, if one lies within half an
// ideal shard — close enough to keep the shards balanced. (In Type
// mode the pair list is only piecewise ascending — one run per subject
// type — so a "segment transition" can occur in either direction;
// either way it marks where a shard's locality changes.) Results never
// depend on the cut positions (summaries merge exactly), only locality
// does.
func shardCuts(n, shards int, tableOf func(int) int, segStarts []int) []int {
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		return []int{0, n}
	}
	edges := segEdgeIndices(n, tableOf, segStarts)
	window := n / (2 * shards)
	cuts := make([]int, 1, shards+1)
	for s := 1; s < shards; s++ {
		cut := s * n / shards
		if i := nearestEdge(edges, cut); i >= 0 && abs(edges[i]-cut) <= window {
			cut = edges[i]
		}
		if cut > cuts[len(cuts)-1] && cut < n {
			cuts = append(cuts, cut)
		}
	}
	return append(cuts, n)
}

// segEdgeIndices returns the ascending pair indices at which the owning
// segment changes, or nil when the corpus has fewer than two segments.
func segEdgeIndices(n int, tableOf func(int) int, segStarts []int) []int {
	if len(segStarts) < 2 {
		return nil
	}
	segOf := func(table int) int {
		// Index of the last start <= table.
		return sort.SearchInts(segStarts, table+1) - 1
	}
	var edges []int
	prev := segOf(tableOf(0))
	for i := 1; i < n; i++ {
		if cur := segOf(tableOf(i)); cur != prev {
			edges = append(edges, i)
			prev = cur
		}
	}
	return edges
}

// nearestEdge returns the index into edges of the edge closest to cut,
// or -1 when edges is empty.
func nearestEdge(edges []int, cut int) int {
	if len(edges) == 0 {
		return -1
	}
	i := sort.SearchInts(edges, cut)
	if i == len(edges) {
		return i - 1
	}
	if i > 0 && cut-edges[i-1] < edges[i]-cut {
		return i - 1
	}
	return i
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// scanShards scans each range [cuts[i], cuts[i+1]) into sinks[i] on a
// pool of at most e.par workers; a single range is scanned inline.
// Workers pull range indices from a shared counter; which worker scans
// which range never matters because sinks are per-range. scs is
// parallel to sinks: each range's counters accumulate contention-free
// and the caller sums them. The first scan error (in practice: the
// context's) is returned after all workers stop.
func (e *Engine) scanShards(ctx context.Context, p *scanPlan, cuts []int, sinks []*rangeSink, scs []scanCounters) error {
	nShards := len(cuts) - 1
	if nShards == 1 {
		return e.scanRange(ctx, p, cuts[0], cuts[1], sinks[0], &scs[0])
	}
	workers := min(e.par, nShards)
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		scanErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= nShards {
					return
				}
				if err := e.scanRange(ctx, p, cuts[i], cuts[i+1], sinks[i], &scs[i]); err != nil {
					errOnce.Do(func() { scanErr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return scanErr
}

// collect scans the plan into per-range cluster summaries and merges
// them into one cluster map. Scan counters, stage times and the
// parallelism actually used accumulate into st; the aggregate stage
// (and its span) exists only when there is more than one range.
func (e *Engine) collect(ctx context.Context, p *scanPlan, explain bool, st *ExecStats) (map[string]*cluster, error) {
	cuts := e.cuts(p)
	sinks := make([]*rangeSink, len(cuts)-1)
	for i := range sinks {
		sinks[i] = newRangeSink(e, explain)
	}
	scs := make([]scanCounters, len(sinks))
	if len(sinks) > 1 {
		st.Parallelism = min(e.par, len(sinks))
	}
	t0 := time.Now()
	scanSp := obs.Begin(ctx, "search.scan")
	err := e.scanShards(ctx, p, cuts, sinks, scs)
	scanSp.End()
	st.Stage.Scan += int64(time.Since(t0))
	for i := range scs {
		st.add(&scs[i])
	}
	if err != nil {
		return nil, err
	}
	cs := sinks[0].cs
	if len(sinks) == 1 {
		return cs, nil
	}
	t0 = time.Now()
	aggSp := obs.Begin(ctx, "search.aggregate")
	defer aggSp.End()
	for _, s := range sinks[1:] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, c := range s.cs {
			mergeInto(cs, c)
		}
	}
	st.Stage.Aggregate += int64(time.Since(t0))
	return cs, nil
}
