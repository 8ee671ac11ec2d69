package search

import (
	"context"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/searchidx"
	"repro/internal/text"
)

// rowCheckInterval bounds cancellation latency inside a single candidate
// pair: the row loops poll ctx.Err() every this many rows, so one huge
// table cannot delay a cancellation or deadline until its scan finishes.
// Power of two so the poll is a mask, not a division.
const rowCheckInterval = 1024

// ScoreScale is the fixed-point resolution of scores: each hit's
// evidence is quantized once to int64 units of 1/ScoreScale (2⁻³²), and
// a cluster's score is the integer sum of its hits' units. Integer
// addition is associative, so a score never depends on the order its
// hits were added in — serial scan, parallel ranges and shard partials
// all sum to the same units. One hit is under 2³³ units (evidence is at
// most 1.5), so an int64 holds more than 2³⁰ hits per cluster.
// Presented scores are float64(units)/ScoreScale, exact below 2⁵³ units.
const ScoreScale = 1 << 32

// quantize converts one hit's evidence to score units.
func quantize(evidence float64) int64 { return int64(math.Round(evidence * ScoreScale)) }

// present converts score units to the presented float score.
func present(units int64) float64 { return float64(units) / ScoreScale }

// cluster is the summary of one answer's evidence within a scan range,
// and — after merging — within the whole corpus.
type cluster struct {
	key     string // unique aggregation key ("e:<id>" or "t:<norm>")
	entity  catalog.EntityID
	score   int64 // score units (see ScoreScale)
	support int
	// canonical is the presented text for entity clusters; text clusters
	// derive theirs from the dominant surface form.
	canonical string
	// variants counts raw surface forms; bestText/bestN maintain the
	// dominant (highest-count, ties broken lexicographically) form
	// incrementally, so presentation never rescans the whole map.
	variants map[string]int
	bestText string
	bestN    int
	// sources is the provenance kept when the request explains: at most
	// MaxExplainSources sources, the first ones in canonical order.
	sources []SourceRef
}

// noteRaw counts n occurrences of a raw surface form, keeping the
// dominant-form fields current. The invariant — bestText is the
// highest-count variant, ties broken by the lexicographically smaller
// string — depends only on the final counts, so any accumulation order
// or batching (one scan range, or merged range summaries) lands on the
// same dominant form.
func (c *cluster) noteRaw(raw string, n int) {
	if n <= 0 {
		return
	}
	total := c.variants[raw] + n
	c.variants[raw] = total
	if total > c.bestN || (total == c.bestN && raw < c.bestText) {
		c.bestText, c.bestN = raw, total
	}
}

// text resolves the presented surface form: the canonical entity name for
// entity clusters, else the dominant raw cell text. O(1): the dominant
// form is maintained as evidence accumulates, not recomputed per call.
func (c *cluster) text() string {
	if c.canonical != "" {
		return c.canonical
	}
	return c.bestText
}

// mergeInto adds summary c — from one scan range or one shard — to the
// cluster map cs: the one merge step behind in-process parallel ranges
// (collect) and shard partials (MergePartials). Every field merges
// order-independently: units, support and variant counts add, and
// sources keep the canonical first MaxExplainSources of the union.
func mergeInto(cs map[string]*cluster, c *cluster) {
	d := cs[c.key]
	if d == nil {
		cs[c.key] = c
		return
	}
	d.score += c.score
	d.support += c.support
	for raw, n := range c.variants {
		d.noteRaw(raw, n)
	}
	for _, s := range c.sources {
		d.sources = addSource(d.sources, s)
	}
}

// before reports whether a precedes b in the canonical source order:
// table, row, column, then score.
func (a SourceRef) before(b SourceRef) bool {
	if a.Table != b.Table {
		return a.Table < b.Table
	}
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	if a.Col != b.Col {
		return a.Col < b.Col
	}
	return a.Score < b.Score
}

// addSource inserts s into srcs — at most MaxExplainSources sources in
// canonical order — keeping the first MaxExplainSources. The kept set
// is the canonical prefix of everything ever added, whatever the order
// of addition.
func addSource(srcs []SourceRef, s SourceRef) []SourceRef {
	i := sort.Search(len(srcs), func(i int) bool { return s.before(srcs[i]) })
	if i == MaxExplainSources {
		return srcs
	}
	if len(srcs) < MaxExplainSources {
		srcs = append(srcs, SourceRef{})
	}
	copy(srcs[i+1:], srcs[i:])
	srcs[i] = s
	return srcs
}

// hit is one matching answer cell: its location, its entity annotation
// (None for text clusters) and the evidence it contributes, already
// quantized to score units.
type hit struct {
	loc    searchidx.CellLoc
	entity catalog.EntityID
	units  int64
}

// rangeSink builds the cluster summaries of one scan range.
type rangeSink struct {
	e       *Engine
	explain bool
	cs      map[string]*cluster
}

func newRangeSink(e *Engine, explain bool) *rangeSink {
	return &rangeSink{e: e, explain: explain, cs: make(map[string]*cluster)}
}

// add folds one hit into its cluster. An unannotated cell whose
// normalized text is empty has no cluster identity and contributes
// nothing.
func (rs *rangeSink) add(h hit) {
	var key string
	if h.entity != catalog.None {
		key = "e:" + strconv.Itoa(int(h.entity))
	} else {
		norm := rs.e.c.NormCell(h.loc)
		if norm == "" {
			return
		}
		key = "t:" + norm
	}
	c := rs.cs[key]
	if c == nil {
		c = &cluster{key: key, entity: h.entity}
		if h.entity != catalog.None {
			c.canonical = rs.e.cat.EntityName(h.entity)
		} else {
			c.variants = make(map[string]int)
		}
		rs.cs[key] = c
	}
	c.score += h.units
	c.support++
	if c.variants != nil {
		c.noteRaw(rs.e.c.RawCell(h.loc), 1)
	}
	if rs.explain {
		c.sources = addSource(c.sources, SourceRef{
			Table: h.loc.Table, Row: h.loc.Row, Col: h.loc.Col, Score: present(h.units),
		})
	}
}

// queryMatcher matches the probe entity's surface form against
// precomputed normalized cells: the query is normalized and tokenized
// once per execution, and cells are matched with their build-time token
// sets — no raw-cell normalization on the query path.
type queryMatcher struct {
	norm string
	toks map[string]struct{}
}

func newQueryMatcher(q string) queryMatcher {
	if q == "" {
		return queryMatcher{}
	}
	return queryMatcher{norm: text.Normalize(q), toks: text.TokenSet(q)}
}

// match scores a cell: 1 for normalized equality, Jaccard when above 0.5,
// else 0.
func (m queryMatcher) match(cellNorm string, cellToks map[string]struct{}) float64 {
	if m.norm == "" || cellNorm == "" {
		return 0
	}
	if m.norm == cellNorm {
		return 1
	}
	if j := text.JaccardSets(m.toks, cellToks); j >= 0.5 {
		return j
	}
	return 0
}

// Execute runs one request: gather candidate column pairs from the
// index's posting lists, build per-cluster summaries over scan ranges
// and merge them, then select the requested page with a bounded
// min-heap (O(n log k), no full-corpus sort). Aggregation state is
// necessarily O(distinct answers) — scores sum across rows before any
// answer can be ranked — while selection and the returned page are
// bounded by the page size. With Explain set, each summary also keeps
// its canonical first MaxExplainSources sources.
//
// With parallelism above one (WithParallelism) the candidate pairs are
// partitioned into contiguous ranges scanned by a bounded worker pool;
// fixed-point scores make the merged result identical to the serial
// scan (see parallel.go).
//
// A context cancellation is detected between candidate pairs and every
// rowCheckInterval rows within a pair, and returns the context's error.
//
// Each stage opens a trace span (search.validate, search.plan,
// search.scan, search.aggregate, search.select, search.explain) on the
// context's trace, if it carries one; untraced executions pay one
// context lookup per stage. Spans only time the stages — they never
// change any work. The same holds for Result.Stats: counters and stage
// timings ride alongside the page and never influence it.
func (e *Engine) Execute(ctx context.Context, req Request) (*Result, error) {
	st, p, err := e.start(ctx, req)
	if err != nil {
		return nil, err
	}
	after, err := decodeAfter(req.Cursor)
	if err != nil {
		return nil, err
	}
	cs, err := e.collect(ctx, p, req.Explain, st)
	if err != nil {
		return nil, err
	}
	return finish(ctx, cs, req.PageSize, after, req.Explain, st), nil
}

// start validates req and plans its scan, recording both stages in a
// fresh ExecStats — the prefix Execute and ExecutePartial share.
func (e *Engine) start(ctx context.Context, req Request) (*ExecStats, *scanPlan, error) {
	st := &ExecStats{Parallelism: 1}
	e.viewCounts(st)
	t0 := time.Now()
	vsp := obs.Begin(ctx, "search.validate")
	err := req.Validate()
	vsp.End()
	st.Stage.Validate = int64(time.Since(t0))
	if err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	psp := obs.Begin(ctx, "search.plan")
	p := e.plan(req)
	psp.End()
	st.Stage.Plan = int64(time.Since(t0))
	return st, &p, nil
}

// decodeAfter decodes a pagination cursor; nil means the first page.
func decodeAfter(cursor string) (*rankKey, error) {
	if cursor == "" {
		return nil, nil
	}
	k, err := decodeCursor(cursor)
	if err != nil {
		return nil, err
	}
	return &k, nil
}

// finish selects the page from the merged clusters and attaches
// provenance — the tail Execute and MergePartials share.
func finish(ctx context.Context, cs map[string]*cluster, pageSize int, after *rankKey, explain bool, st *ExecStats) *Result {
	t0 := time.Now()
	ssp := obs.Begin(ctx, "search.select")
	res, winners, eligible := selectPage(cs, pageSize, after)
	ssp.End()
	st.Stage.Select += int64(time.Since(t0))
	st.AnswersBeforeTopK = eligible
	if explain && len(winners) > 0 {
		t0 = time.Now()
		esp := obs.Begin(ctx, "search.explain")
		for i, c := range winners {
			res.Answers[i].Explanation = &Explanation{Sources: c.sources, Truncated: c.support - len(c.sources)}
		}
		esp.End()
		st.Stage.Explain += int64(time.Since(t0))
	}
	res.Stats = st
	return res
}

// basePair is one baseline candidate: a header-matched answer column and
// a same-table probe column.
type basePair struct{ c1, c2 searchidx.ColRef }

// scanPlan is one execution's candidate schedule: the mode's ordered
// candidate column pairs plus the prepared query matcher. The pair list
// is built once per execution and scanned either whole (serial) or in
// contiguous ranges (parallel).
type scanPlan struct {
	mode Mode
	q    Query
	m    queryMatcher
	base []basePair             // Baseline candidates
	ann  []searchidx.ColumnPair // Type / TypeRel candidates
}

// len returns the number of candidate pairs.
func (p *scanPlan) len() int {
	if p.mode == Baseline {
		return len(p.base)
	}
	return len(p.ann)
}

// tableOf returns the (global) table number of candidate pair i. In
// Baseline and TypeRel modes pairs ascend by table; in Type mode the
// list concatenates one corpus-ordered run per subject type, so the
// sequence is only piecewise ascending — segment-edge snapping treats
// any segment transition between adjacent pairs as a boundary
// candidate, which is still where locality changes.
func (p *scanPlan) tableOf(i int) int {
	if p.mode == Baseline {
		return p.base[i].c1.Table
	}
	return p.ann[i].Table
}

// plan gathers the mode's candidate pairs and prepares the matcher.
func (e *Engine) plan(req Request) scanPlan {
	p := scanPlan{mode: req.Mode, q: req.Query, m: newQueryMatcher(req.Query.E2Text)}
	if req.Mode == Baseline {
		p.base = e.baselinePairs(req.Query)
	} else {
		p.ann = e.annotatedPairs(req.Query, req.Mode == TypeRel)
	}
	return p
}

// scanRange scans candidate pairs [lo, hi) of the plan into sink,
// accumulating pair/row counters into sc (per-range instances; the
// caller sums them afterwards).
func (e *Engine) scanRange(ctx context.Context, p *scanPlan, lo, hi int, sink *rangeSink, sc *scanCounters) error {
	if p.mode == Baseline {
		return e.scanBaselineRange(ctx, p, lo, hi, sink, sc)
	}
	return e.scanAnnotatedRange(ctx, p, lo, hi, sink, sc)
}

// selectPage picks the PageSize best-ranked clusters strictly after the
// cursor. With k > 0 it never sorts more than the k retained entries.
// It also returns the page's clusters, for provenance attachment, and
// the eligible count, for ExecStats.AnswersBeforeTopK.
func selectPage(cs map[string]*cluster, pageSize int, after *rankKey) (*Result, []*cluster, int) {
	res := &Result{Total: len(cs)}
	eligible := 0
	var page []pageEntry
	heap := newTopK(pageSize)
	for _, c := range cs {
		k := rankKey{score: c.score, support: c.support, text: c.text(), key: c.key}
		if after != nil && !after.before(k) {
			continue
		}
		eligible++
		if pageSize == 0 {
			page = append(page, pageEntry{c: c, key: k})
		} else {
			heap.offer(pageEntry{c: c, key: k})
		}
	}
	if pageSize == 0 {
		sort.Slice(page, func(i, j int) bool { return page[i].key.before(page[j].key) })
	} else {
		page = heap.ranked()
	}
	res.Answers = make([]Answer, len(page))
	winners := make([]*cluster, len(page))
	for i, pe := range page {
		winners[i] = pe.c
		res.Answers[i] = Answer{
			Text:    pe.key.text,
			Entity:  pe.c.entity,
			Score:   present(pe.c.score),
			Support: pe.c.support,
		}
	}
	if eligible > len(page) && len(page) > 0 {
		res.NextCursor = encodeCursor(page[len(page)-1].key)
	}
	return res, winners, eligible
}

// baselinePairs implements the candidate retrieval of Figure 3:
// interpret all inputs as strings; find tables whose headers match T1
// and T2 and context matches R; pair each T1 column with every other
// column of the same table that matches T2.
func (e *Engine) baselinePairs(q Query) []basePair {
	t1Cols := e.c.HeaderMatches(q.T1Text)
	t2Cols := e.c.HeaderMatches(q.T2Text)
	ctxTables := e.c.ContextMatches(q.RelationText)

	var pairs []basePair
	t2ByTable := make(map[int][]searchidx.ColRef)
	for _, ref := range t2Cols {
		t2ByTable[ref.Table] = append(t2ByTable[ref.Table], ref)
	}
	for _, c1 := range t1Cols {
		if _, ok := ctxTables[c1.Table]; !ok {
			continue
		}
		for _, c2 := range t2ByTable[c1.Table] {
			if c2.Col != c1.Col {
				pairs = append(pairs, basePair{c1, c2})
			}
		}
	}
	// HeaderMatches order follows token-map iteration, so sort the pairs
	// into corpus order: results do not depend on it, but parallel scan
	// ranges then cover contiguous tables and snap to segment edges.
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.c1.Table != b.c1.Table {
			return a.c1.Table < b.c1.Table
		}
		if a.c1.Col != b.c1.Col {
			return a.c1.Col < b.c1.Col
		}
		return a.c2.Col < b.c2.Col
	})
	return pairs
}

// scanBaselineRange runs the matching stage of Figure 3 over baseline
// candidate pairs [lo, hi): look for E2 in the T2 column; report the
// T1-column cells of qualifying rows keyed by normalized text.
func (e *Engine) scanBaselineRange(ctx context.Context, pl *scanPlan, lo, hi int, sink *rangeSink, sc *scanCounters) error {
	for _, p := range pl.base[lo:hi] {
		if err := ctx.Err(); err != nil {
			return err
		}
		rows := e.c.Rows(p.c1.Table)
		matched := false
		for r := 0; r < rows; r++ {
			if r&(rowCheckInterval-1) == rowCheckInterval-1 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			loc2 := searchidx.CellLoc{Table: p.c2.Table, Row: r, Col: p.c2.Col}
			sim := pl.m.match(e.c.NormCell(loc2), e.c.CellTokens(loc2))
			if sim <= 0 {
				continue
			}
			matched = true
			loc1 := searchidx.CellLoc{Table: p.c1.Table, Row: r, Col: p.c1.Col}
			sink.add(hit{loc: loc1, entity: catalog.None, units: quantize(sim)})
		}
		sc.pairs++
		sc.rows += int64(rows)
		if matched {
			sc.pairsMatched++
		}
	}
	return nil
}

// annotatedPairs implements the candidate retrieval of Figure 4 over the
// precomputed posting lists: pairs come from the per-relation list
// (TypeRel) or the subject-type-keyed typed-pair list (Type), filtered
// by subtype compatibility with the query types.
func (e *Engine) annotatedPairs(q Query, requireRel bool) []searchidx.ColumnPair {
	var pairs []searchidx.ColumnPair
	if requireRel {
		for _, p := range e.c.RelationPairs(q.Relation) {
			if p.SubjType != catalog.None && e.cat.IsSubtype(p.SubjType, q.T1) &&
				p.ObjType != catalog.None && e.cat.IsSubtype(p.ObjType, q.T2) {
				pairs = append(pairs, p)
			}
		}
	} else {
		// Type mode: subject types in ID order, each type's pairs in
		// corpus order.
		for _, T := range e.c.SubjectTypes() {
			if !e.cat.IsSubtype(T, q.T1) {
				continue
			}
			for _, p := range e.c.TypedPairsOf(T) {
				if p.ObjType != catalog.None && e.cat.IsSubtype(p.ObjType, q.T2) {
					pairs = append(pairs, p)
				}
			}
		}
	}
	return pairs
}

// scanAnnotatedRange runs the matching stage of Figure 4 over annotated
// candidate pairs [lo, hi): E2 is matched by entity annotation with text
// fallback; evidence is keyed per entity (or per normalized text for
// unannotated answer cells).
func (e *Engine) scanAnnotatedRange(ctx context.Context, pl *scanPlan, lo, hi int, sink *rangeSink, sc *scanCounters) error {
	q := pl.q
	for _, p := range pl.ann[lo:hi] {
		if err := ctx.Err(); err != nil {
			return err
		}
		rows := e.c.Rows(p.Table)
		matched := false
		for r := 0; r < rows; r++ {
			if r&(rowCheckInterval-1) == rowCheckInterval-1 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			loc2 := searchidx.CellLoc{Table: p.Table, Row: r, Col: p.ObjCol}
			var evidence float64
			if q.E2 != catalog.None {
				if e.c.EntityAt(loc2) == q.E2 {
					evidence = 1.5 // exact entity match beats text match
				} else if e.c.EntityAt(loc2) == catalog.None {
					evidence = pl.m.match(e.c.NormCell(loc2), e.c.CellTokens(loc2))
				}
			} else {
				evidence = pl.m.match(e.c.NormCell(loc2), e.c.CellTokens(loc2))
			}
			if evidence <= 0 {
				continue
			}
			matched = true
			loc1 := searchidx.CellLoc{Table: p.Table, Row: r, Col: p.SubjCol}
			sink.add(hit{loc: loc1, entity: e.c.EntityAt(loc1), units: quantize(evidence)})
		}
		sc.pairs++
		sc.rows += int64(rows)
		if matched {
			sc.pairsMatched++
		}
	}
	return nil
}
