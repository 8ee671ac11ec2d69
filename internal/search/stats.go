// Execution statistics: what one query cost, measured on every path
// (serial, parallel, partial) without touching what it returns.
//
// The counters are pure functions of the corpus and the request —
// candidate pairs, rows, segments are the same on every run and at
// every parallelism level, and a routed query's merged counters are the
// exact sums of its shards' (shards own disjoint table ranges, and
// integer addition is order-independent). The stage timings are wall
// clock and therefore not deterministic; tests compare counters and
// ignore timings. Nothing here may change what a scan computes — the
// identical-results contract is asserted over executions that all
// collect stats.
package search

// StageNanos is the wall-clock nanoseconds one execution spent in each
// pipeline stage. Aggregate is the time spent merging scan-range
// summaries (zero on a serial scan). On a shard, Select and Explain are
// zero (those stages run at the router's merge); in a merged result,
// Validate/Plan/Scan are the sums across shards (total cluster work,
// not critical-path time) while Select and Explain are the merge's own
// and Aggregate adds the merge's time to the shards'.
type StageNanos struct {
	Validate  int64
	Plan      int64
	Scan      int64
	Aggregate int64
	Select    int64
	Explain   int64
}

// ExecStats describes what one query execution cost. Execute,
// ExecutePartial and MergePartials populate it unconditionally — the
// counters are a handful of integer adds per candidate pair, far below
// the cost of scanning the pair — and it rides alongside the result
// (Result.Stats) without ever influencing answers, scores, cursors or
// explanations.
type ExecStats struct {
	// CandidatePairs is how many candidate column pairs the scan
	// visited; PairsMatched counts those that contributed at least one
	// hit (the rest were pure wasted scan work — the signal a
	// statistics-driven planner would prune on).
	CandidatePairs int64
	PairsMatched   int64
	// RowsScanned is the total rows walked across all candidate pairs
	// (a pair visiting the same physical row as another pair counts it
	// again: this measures work done, not distinct rows). A merged
	// result's RowsScanned is exactly the sum of its shards'.
	RowsScanned int64
	// SegmentsVisited and TombstonesSkipped describe the corpus view
	// the scan ran over: its live index segments and the removed tables
	// whose postings were skipped. A monolithic index counts as one
	// segment.
	SegmentsVisited   int
	TombstonesSkipped int
	// AnswersBeforeTopK is how many answer clusters were eligible for
	// the page (after the cursor filter, before top-k truncation).
	AnswersBeforeTopK int
	// Parallelism is the scan parallelism actually used — 1 on the
	// serial path, the worker count when the candidate list was
	// sharded. It can be lower than the configured parallelism when
	// there were fewer shards than workers.
	Parallelism int
	// Stage is the per-stage wall-clock time.
	Stage StageNanos
}

// scanCounters accumulates one scan range's deterministic counters.
// Each concurrent scan worker gets its own instance (no contention on
// the hot path); the per-shard counts are summed afterwards — integer
// addition, so the total is independent of shard layout and scheduling.
type scanCounters struct {
	pairs        int64
	pairsMatched int64
	rows         int64
}

// add folds one scan range's counters into the stats.
func (st *ExecStats) add(sc *scanCounters) {
	st.CandidatePairs += sc.pairs
	st.PairsMatched += sc.pairsMatched
	st.RowsScanned += sc.rows
}

// viewCounts records the segment shape of the corpus view the engine
// scans. Segmented views (segment.View) report their live segment and
// tombstone counts; anything else is one monolithic segment.
func (e *Engine) viewCounts(st *ExecStats) {
	if v, ok := e.c.(interface {
		Segments() int
		Tombstones() int
	}); ok {
		st.SegmentsVisited = v.Segments()
		st.TombstonesSkipped = v.Tombstones()
		return
	}
	st.SegmentsVisited = 1
}

// MergeExecStats folds per-shard execution stats into the cluster-wide
// view a routed query reports: counters and shard-side stage times sum
// (shards own disjoint table ranges, so sums are exact totals, not
// estimates), Parallelism is the maximum any shard used, and the
// merge-side stages (Aggregate, Select, Explain) are left for the
// merge itself to fill in.
func MergeExecStats(shards []ExecStats) ExecStats {
	out := ExecStats{Parallelism: 1}
	for i := range shards {
		s := &shards[i]
		out.CandidatePairs += s.CandidatePairs
		out.PairsMatched += s.PairsMatched
		out.RowsScanned += s.RowsScanned
		out.SegmentsVisited += s.SegmentsVisited
		out.TombstonesSkipped += s.TombstonesSkipped
		if s.Parallelism > out.Parallelism {
			out.Parallelism = s.Parallelism
		}
		out.Stage.Validate += s.Stage.Validate
		out.Stage.Plan += s.Stage.Plan
		out.Stage.Scan += s.Stage.Scan
		out.Stage.Aggregate += s.Stage.Aggregate
		out.Stage.Select += s.Stage.Select
		out.Stage.Explain += s.Stage.Explain
	}
	return out
}
