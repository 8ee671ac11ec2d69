// Package searchidx is the corpus index of the search application (§5):
// the stand-in for the paper's Lucene index over 25M web tables. It
// offers field-scoped text postings (cell / header / context) for the
// un-annotated baseline of Figure 3, and annotation-aware indexes (columns
// by type, column pairs by relation, cells by entity) for the Figure-4
// query processor.
//
// Everything the query processor needs per candidate is materialized at
// build time: oriented candidate column pairs per relation (with the
// annotated column types baked in), ordered typed-column pairs for the
// type-only mode, and per-cell normalized text, token sets and entity
// IDs — so query execution never tokenizes or normalizes raw cell text.
package searchidx

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/text"
)

// ColRef addresses a column of an indexed table.
type ColRef struct {
	Table int // index into Tables
	Col   int
}

// CellLoc addresses a data cell of an indexed table.
type CellLoc struct {
	Table, Row, Col int
}

// RelRef records one annotated relation instance.
type RelRef struct {
	Table      int
	Col1, Col2 int
	Forward    bool
}

// ColumnPair is one precomputed candidate column pair: an oriented
// (subject, object) pairing of two distinct annotated columns of one
// table, with their annotated types baked in so the query processor can
// test type compatibility without further lookups.
type ColumnPair struct {
	Table             int
	SubjCol, ObjCol   int
	SubjType, ObjType catalog.TypeID
}

// Index holds the corpus plus optional annotations.
type Index struct {
	cat    *catalog.Catalog
	Tables []*table.Table
	// Anns[i] annotates Tables[i]; nil when the corpus is unannotated.
	Anns []*core.Annotation

	headerPost  map[string][]ColRef
	contextPost map[string][]int
	cellPost    map[string][]CellLoc

	cellsByEntity map[catalog.EntityID][]CellLoc

	// Query-time posting lists, materialized at build time. relPairs
	// holds the oriented candidate pairs per relation; typedPairs holds
	// every ordered pair of distinct type-annotated columns, keyed by
	// the subject column's annotated type so type-scoped retrieval never
	// scans pairs of unrelated types.
	relPairs   map[catalog.RelationID][]ColumnPair
	typedPairs map[catalog.TypeID][]ColumnPair

	// Per-cell precomputed data, flattened row-major per table
	// (index row*cols+col).
	tableCols []int
	normCells [][]string
	cellToks  [][]map[string]struct{}
	cellEnts  [][]catalog.EntityID // nil entry: table unannotated
	colTypes  [][]catalog.TypeID   // nil entry: table unannotated
}

// New builds an index over a corpus. anns may be nil (baseline mode) or
// parallel to tables; a nil entry disables annotation lookups for that
// table. Invalid input (an anns slice whose length mismatches tables)
// panics with the cause — New has no error return, and a silent nil
// index would only defer the crash to the first lookup. Use BuildContext
// to handle the error instead.
func New(cat *catalog.Catalog, tables []*table.Table, anns []*core.Annotation) *Index {
	ix, err := BuildContext(context.Background(), cat, tables, anns)
	if err != nil {
		panic(err)
	}
	return ix
}

// rowCheckInterval is how many cells are indexed between context polls,
// mirroring the row-scan idiom in internal/search/exec.go. Power of two
// so the check compiles to a mask, not a division.
const rowCheckInterval = 1024

// BuildContext is New with input validation and cancellation: a non-nil
// anns slice must be parallel to tables (a length mismatch is reported as
// an error instead of panicking later in EntityAt/TypeAt), and the context
// is checked between tables — and every rowCheckInterval cells within a
// table — so indexing a corpus with one oversized table still aborts
// promptly.
func BuildContext(ctx context.Context, cat *catalog.Catalog, tables []*table.Table, anns []*core.Annotation) (*Index, error) {
	if anns != nil && len(anns) != len(tables) {
		return nil, fmt.Errorf("searchidx: %d annotations for %d tables", len(anns), len(tables))
	}
	ix := &Index{
		cat:           cat,
		Tables:        tables,
		Anns:          anns,
		headerPost:    make(map[string][]ColRef),
		contextPost:   make(map[string][]int),
		cellPost:      make(map[string][]CellLoc),
		cellsByEntity: make(map[catalog.EntityID][]CellLoc),
		relPairs:      make(map[catalog.RelationID][]ColumnPair),
		typedPairs:    make(map[catalog.TypeID][]ColumnPair),
		tableCols:     make([]int, len(tables)),
		normCells:     make([][]string, len(tables)),
		cellToks:      make([][]map[string]struct{}, len(tables)),
		cellEnts:      make([][]catalog.EntityID, len(tables)),
		colTypes:      make([][]catalog.TypeID, len(tables)),
	}
	for ti, t := range tables {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cols := t.Cols()
		ix.tableCols[ti] = cols
		ix.normCells[ti] = make([]string, t.Rows()*cols)
		ix.cellToks[ti] = make([]map[string]struct{}, t.Rows()*cols)
		for tok := range text.TokenSet(t.Context) {
			ix.contextPost[tok] = append(ix.contextPost[tok], ti)
		}
		//lint:allow ctxpoll -- bounded by column count × header tokens, not row-scale
		for c := 0; c < cols; c++ {
			for tok := range text.TokenSet(t.Header(c)) {
				ix.headerPost[tok] = append(ix.headerPost[tok], ColRef{ti, c})
			}
		}
		for r := 0; r < t.Rows(); r++ {
			for c := 0; c < cols; c++ {
				if cell := r*cols + c; cell&(rowCheckInterval-1) == rowCheckInterval-1 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				toks := text.Tokenize(t.Cell(r, c))
				set := make(map[string]struct{}, len(toks))
				for _, tok := range toks {
					set[tok] = struct{}{}
				}
				ix.normCells[ti][r*cols+c] = strings.Join(toks, " ")
				ix.cellToks[ti][r*cols+c] = set
				for tok := range set {
					ix.cellPost[tok] = append(ix.cellPost[tok], CellLoc{ti, r, c})
				}
			}
		}
	}
	if anns != nil {
		for ti, ann := range anns {
			if ann == nil {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cols := ix.tableCols[ti]
			colT := make([]catalog.TypeID, cols)
			for c := range colT {
				colT[c] = catalog.None
			}
			for c, T := range ann.ColumnTypes {
				if c < cols {
					colT[c] = T
				}
			}
			ix.colTypes[ti] = colT

			// Relation posting lists: one oriented pair per annotated
			// relation instance, subject column first.
			for _, ra := range ann.Relations {
				sc, oc := ra.Col1, ra.Col2
				if !ra.Forward {
					sc, oc = oc, sc
				}
				ix.relPairs[ra.Relation] = append(ix.relPairs[ra.Relation], ColumnPair{
					Table: ti, SubjCol: sc, ObjCol: oc,
					SubjType: typeOf(colT, sc), ObjType: typeOf(colT, oc),
				})
			}

			// Typed-pair posting list: every ordered pair of distinct
			// type-annotated columns, the type-only mode's candidates.
			//lint:allow ctxpoll -- bounded by column count squared, not row-scale
			for c1 := 0; c1 < cols; c1++ {
				if colT[c1] == catalog.None {
					continue
				}
				for c2 := 0; c2 < cols; c2++ {
					if c2 == c1 || colT[c2] == catalog.None {
						continue
					}
					ix.typedPairs[colT[c1]] = append(ix.typedPairs[colT[c1]], ColumnPair{
						Table: ti, SubjCol: c1, ObjCol: c2,
						SubjType: colT[c1], ObjType: colT[c2],
					})
				}
			}

			rows := tables[ti].Rows()
			ents := make([]catalog.EntityID, rows*cols)
			for i := range ents {
				ents[i] = catalog.None
			}
			for r, row := range ann.CellEntities {
				if r >= rows {
					break
				}
				if r&(rowCheckInterval-1) == rowCheckInterval-1 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				for c, e := range row {
					if c >= cols {
						continue
					}
					ents[r*cols+c] = e
					if e != catalog.None {
						ix.cellsByEntity[e] = append(ix.cellsByEntity[e], CellLoc{ti, r, c})
					}
				}
			}
			ix.cellEnts[ti] = ents
		}
	}
	return ix, nil
}

func typeOf(colT []catalog.TypeID, c int) catalog.TypeID {
	if c < 0 || c >= len(colT) {
		return catalog.None
	}
	return colT[c]
}

// Catalog returns the catalog the annotations refer to.
func (ix *Index) Catalog() *catalog.Catalog { return ix.cat }

// Rows returns the number of data rows of an indexed table.
func (ix *Index) Rows(ti int) int { return ix.Tables[ti].Rows() }

// RawCell returns the original (un-normalized) cell text, for answer
// presentation.
func (ix *Index) RawCell(loc CellLoc) string {
	return ix.Tables[loc.Table].Cell(loc.Row, loc.Col)
}

// HeaderMatches returns columns whose header shares a token with q, in
// sorted-token probe order: deterministic, so every run scans the same
// sequence.
func (ix *Index) HeaderMatches(q string) []ColRef {
	seen := make(map[ColRef]struct{})
	var out []ColRef
	for _, tok := range sortedTokens(text.TokenSet(q)) {
		for _, ref := range ix.headerPost[tok] {
			if _, dup := seen[ref]; !dup {
				seen[ref] = struct{}{}
				out = append(out, ref)
			}
		}
	}
	return out
}

// sortedTokens returns the set's tokens in sorted order, so index
// probes concatenate posting lists deterministically.
func sortedTokens(set map[string]struct{}) []string {
	toks := make([]string, 0, len(set))
	for t := range set {
		toks = append(toks, t)
	}
	sort.Strings(toks)
	return toks
}

// ContextMatches returns tables whose context shares a token with q.
func (ix *Index) ContextMatches(q string) map[int]struct{} {
	out := make(map[int]struct{})
	for tok := range text.TokenSet(q) {
		for _, ti := range ix.contextPost[tok] {
			out[ti] = struct{}{}
		}
	}
	return out
}

// CellMatches returns cells sharing a token with q, in sorted-token
// probe order (see HeaderMatches).
func (ix *Index) CellMatches(q string) []CellLoc {
	seen := make(map[CellLoc]struct{})
	var out []CellLoc
	for _, tok := range sortedTokens(text.TokenSet(q)) {
		for _, loc := range ix.cellPost[tok] {
			if _, dup := seen[loc]; !dup {
				seen[loc] = struct{}{}
				out = append(out, loc)
			}
		}
	}
	return out
}

// ColumnsOfType returns columns annotated with a type T such that
// T ⊆* want (subtype-or-equal), i.e. every column guaranteed to hold
// entities of the query type. Derived from the per-table column types in
// corpus order (the query path uses TypedPairs/RelationPairs instead).
func (ix *Index) ColumnsOfType(want catalog.TypeID) []ColRef {
	var out []ColRef
	for ti, colT := range ix.colTypes {
		for c, T := range colT {
			if T != catalog.None && ix.cat.IsSubtype(T, want) {
				out = append(out, ColRef{ti, c})
			}
		}
	}
	return out
}

// RelationInstances returns annotated column pairs carrying relation b,
// derived from the relation posting list in subject-first orientation.
func (ix *Index) RelationInstances(b catalog.RelationID) []RelRef {
	pairs := ix.relPairs[b]
	if pairs == nil {
		return nil
	}
	out := make([]RelRef, len(pairs))
	for i, p := range pairs {
		out[i] = RelRef{Table: p.Table, Col1: p.SubjCol, Col2: p.ObjCol, Forward: true}
	}
	return out
}

// RelationPairs returns the precomputed oriented candidate column pairs
// carrying relation b, subject column first, with annotated types baked
// in.
func (ix *Index) RelationPairs(b catalog.RelationID) []ColumnPair {
	return ix.relPairs[b]
}

// TypedPairs returns the ordered pairs of distinct type-annotated
// columns whose subject column's type is subj or a subtype of it — the
// candidate pairs of the type-only query mode, to be filtered further by
// object-type compatibility. Matching subject types are visited in ID
// order so the result is deterministic across calls.
func (ix *Index) TypedPairs(subj catalog.TypeID) []ColumnPair {
	var out []ColumnPair
	for _, T := range ix.SubjectTypes() {
		if ix.cat.IsSubtype(T, subj) {
			out = append(out, ix.typedPairs[T]...)
		}
	}
	return out
}

// SubjectTypes returns every subject type the typed-pair posting list is
// keyed by, in ascending ID order. Together with TypedPairsOf it gives
// callers (the query engine, the segmented corpus view) the primitive
// pieces of TypedPairs so multi-segment retrieval can interleave
// segments per type and keep the monolithic scan order.
func (ix *Index) SubjectTypes() []catalog.TypeID {
	out := make([]catalog.TypeID, 0, len(ix.typedPairs))
	for T := range ix.typedPairs {
		out = append(out, T)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TypedPairsOf returns the typed-pair posting list of exactly subject
// type T (no subtype closure), in corpus order. The returned slice is
// shared; callers must not mutate it.
func (ix *Index) TypedPairsOf(T catalog.TypeID) []ColumnPair {
	return ix.typedPairs[T]
}

// CellsOfEntity returns cells annotated with entity e.
func (ix *Index) CellsOfEntity(e catalog.EntityID) []CellLoc {
	return ix.cellsByEntity[e]
}

// EntityAt returns the entity annotation of a cell (None if absent).
func (ix *Index) EntityAt(loc CellLoc) catalog.EntityID {
	ents := ix.cellEnts[loc.Table]
	if ents == nil {
		return catalog.None
	}
	return ents[loc.Row*ix.tableCols[loc.Table]+loc.Col]
}

// TypeAt returns the type annotation of a column (None if absent).
func (ix *Index) TypeAt(ref ColRef) catalog.TypeID {
	colT := ix.colTypes[ref.Table]
	if colT == nil {
		return catalog.None
	}
	return typeOf(colT, ref.Col)
}

// NormCell returns the cell's normalized text, precomputed at build time.
func (ix *Index) NormCell(loc CellLoc) string {
	return ix.normCells[loc.Table][loc.Row*ix.tableCols[loc.Table]+loc.Col]
}

// CellTokens returns the cell's token set, precomputed at build time. The
// returned map is shared; callers must not mutate it.
func (ix *Index) CellTokens(loc CellLoc) map[string]struct{} {
	return ix.cellToks[loc.Table][loc.Row*ix.tableCols[loc.Table]+loc.Col]
}
