package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	webtable "repro"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/worldgen"
)

// Input sizes. They are sized so that a run, with its set-up, fits the
// benchmark's time budget on a 2-vCPU host (see README.md).
const (
	// searchTables is the corpus size of the search and routed
	// workloads. Smaller corpora make HTTP handling, not search, the
	// bulk of a request.
	searchTables = 480
	// ingestBaseTables is the corpus the ingest workload starts from.
	ingestBaseTables = 60
	// ingestBatch is the number of tables in one POST /v1/tables.
	ingestBatch = 20
	// queriesPerRelation is the SearchWorkload sample per relation.
	queriesPerRelation = 40
	// pageSize is the page size of every search request.
	pageSize = 10
	// page2Percent and explainPercent are the shares of the stream that
	// fetch page 2 by cursor and that ask for explanations.
	page2Percent   = 5
	explainPercent = 5
)

// Body variants of one base query: each base body has a page-2 and an
// explain variant, so the pool slot of variant v of base q is 3q+v.
const (
	plainVariant = iota
	page2Variant
	explainVariant
	numVariants
)

// modes are the three query processors of Figure 9, in wire spelling.
var modes = []string{"baseline", "type", "typerel"}

// buildWorld is the synthetic world every workload serves: the
// catalog is fixed, the corpus and the queries vary with the seed.
func buildWorld() (*worldgen.World, error) {
	return worldgen.Build(worldgen.DefaultSpec())
}

// tablesOf returns the tables of a labeled dataset.
func tablesOf(lts []worldgen.LabeledTable) []*table.Table {
	out := make([]*table.Table, len(lts))
	for i, lt := range lts {
		out[i] = lt.Table
	}
	return out
}

// queries is the seed's query sample: SearchWorkload over the Figure-13
// relations.
func queries(w *worldgen.World, seed int64) []worldgen.SearchQuery {
	return w.SearchWorkload(worldgen.SearchRelations, queriesPerRelation, seed)
}

// baseBodies renders every query in every mode as a wire request body.
// Baseline requests carry the surface vocabulary the Figure 9 baseline
// matches on (relation context words and type lemmas); the annotated
// modes name catalog types, as a client of the typed API would.
func baseBodies(w *worldgen.World, qs []worldgen.SearchQuery) ([][]byte, error) {
	out := make([][]byte, 0, len(qs)*len(modes))
	for _, q := range qs {
		ri, ok := w.Rel(q.RelationName)
		if !ok {
			return nil, fmt.Errorf("unknown relation %q", q.RelationName)
		}
		for _, mode := range modes {
			wr := server.SearchRequest{
				Relation: q.RelationName,
				T1:       w.True.TypeName(q.T1),
				T2:       w.True.TypeName(q.T2),
				E2:       q.E2Name,
				Mode:     mode,
				PageSize: pageSize,
			}
			if mode == "baseline" {
				wr.Context = strings.Join(ri.ContextWords, " ")
				wr.T1 = strings.Join(w.True.TypeLemmas(q.T1), " ")
				wr.T2 = strings.Join(w.True.TypeLemmas(q.T2), " ")
			}
			body, err := json.Marshal(wr)
			if err != nil {
				return nil, err
			}
			out = append(out, body)
		}
	}
	return out, nil
}

// pool is every distinct request body of a run with the bytes a single
// node must answer it with. Slot 3q+v holds variant v of base body q.
type pool struct {
	bodies [][]byte
	expect [][]byte
}

// buildPool derives the page-2 and explain variants of every base body
// and computes every expected response in-process on svc. A page-2
// variant of a query whose ranking fits one page repeats its base body.
func buildPool(ctx context.Context, svc *webtable.Service, base [][]byte) (*pool, error) {
	p := &pool{
		bodies: make([][]byte, len(base)*numVariants),
		expect: make([][]byte, len(base)*numVariants),
	}
	for q, body := range base {
		want, res, err := expectResponse(ctx, svc, body)
		if err != nil {
			return nil, err
		}
		var wr server.SearchRequest
		if err := json.Unmarshal(body, &wr); err != nil {
			return nil, err
		}
		page2 := wr
		page2.Cursor = res.NextCursor
		explain := wr
		explain.Explain = true
		p.bodies[numVariants*q+plainVariant] = body
		p.expect[numVariants*q+plainVariant] = want
		if p.bodies[numVariants*q+page2Variant], err = json.Marshal(page2); err != nil {
			return nil, err
		}
		if p.bodies[numVariants*q+explainVariant], err = json.Marshal(explain); err != nil {
			return nil, err
		}
	}
	for slot, body := range p.bodies {
		if p.expect[slot] != nil {
			continue
		}
		want, _, err := expectResponse(ctx, svc, body)
		if err != nil {
			return nil, err
		}
		p.expect[slot] = want
	}
	return p, nil
}

// cursors counts the page-2 bodies that carry a cursor.
func (p *pool) cursors() int {
	n := 0
	for q := 0; q < len(p.bodies)/numVariants; q++ {
		if !bytes.Equal(p.bodies[numVariants*q+page2Variant], p.bodies[numVariants*q+plainVariant]) {
			n++
		}
	}
	return n
}

// stream is the seed's request stream: an endless, deterministic
// sequence of pool slots. Request i draws its base query uniformly and
// is a page-2 fetch or an explain request with small fixed shares.
type stream struct {
	seed  int64
	bases int
}

// slot returns the pool slot of request i.
func (s stream) slot(i int64) int {
	h := splitmix64(uint64(s.seed)*0x9E3779B97F4A7C15 + uint64(i))
	base := int(h % uint64(s.bases))
	switch v := splitmix64(h) % 100; {
	case v < page2Percent:
		return numVariants*base + page2Variant
	case v < page2Percent+explainPercent:
		return numVariants*base + explainVariant
	}
	return numVariants*base + plainVariant
}

// base returns the base query of request i: the body an ingest-phase
// read sends, since cursors and explanations of a changing corpus have
// no fixed answer.
func (s stream) base(i int64) int { return s.slot(i) / numVariants }

// repeatShare is the share of requests [0, n) whose body, key(i),
// already appeared earlier in the run.
func repeatShare(n int64, key func(int64) int) float64 {
	if n == 0 {
		return 0
	}
	seen := make(map[int]bool)
	for i := int64(0); i < n; i++ {
		seen[key(i)] = true
	}
	return 1 - float64(len(seen))/float64(n)
}

// splitmix64 is the SplitMix64 finalizer: a fast, well-mixed hash.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// profiles are the three noise profiles fresh tables are drawn from in
// equal shares.
var profiles = []struct {
	name    string
	profile func() worldgen.NoiseProfile
}{
	{"clean", worldgen.CleanProfile},
	{"noisy", worldgen.NoisyProfile},
	{"link", worldgen.LinkProfile},
}

// freshBatch generates one batch of new tables, with IDs unique to
// (prefix, j), in near-equal shares from the clean, noisy and link
// profiles.
func freshBatch(w *worldgen.World, prefix string, seed int64, j int) []worldgen.LabeledTable {
	var out []worldgen.LabeledTable
	for p, pr := range profiles {
		n := ingestBatch / len(profiles)
		if p < ingestBatch%len(profiles) {
			n++
		}
		ds := w.GenerateDataset(fmt.Sprintf("%s%02d-%s", prefix, j, pr.name),
			seed*7919+int64(j*len(profiles)+p), n, 10, 40, pr.profile(), worldgen.AllGTLayers())
		out = append(out, ds.Tables...)
	}
	return out
}
