package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"slices"
	"time"

	webtable "repro"
	"repro/internal/dist"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/worldgen"
)

// Probe sizes: fixed amounts of work, so the per-layer numbers do not
// depend on --seconds.
const (
	// probeReps is how often the snapshot is saved and loaded.
	probeReps = 3
	// probePerMode is the number of distinct queries per mode sent
	// through every layer once; probeExplain of them also ask for
	// explanations.
	probePerMode = 40
	probeExplain = 20
	// probeCalls is the number of in-process searches per mode, enough
	// samples for a p99.
	probeCalls = 1000
	// probeBatches is the number of fresh-table batches annotated and
	// added in-process.
	probeBatches = 3
)

// layers is the per-layer part of the traced run. It loads the served
// corpus's snapshot into its own single node and shards, serves both,
// and sends a fixed sample of requests through every layer, recording a
// span around each public call; then it annotates and adds fresh
// batches. The metrics are read back from the spans.
func (b *bench) layers(ctx context.Context, t *traceable) error {
	var single *webtable.Service
	var parts []*webtable.Service
	var asns []webtable.ShardAssignment
	saved := 0
	for r := 0; r < probeReps; r++ {
		if r > 0 {
			single.Close()
			closeEach(parts)
		}
		var err error
		if single, parts, asns, err = b.loadSnapshot(ctx, t.snap, int64(r)); err != nil {
			return err
		}
		var buf bytes.Buffer
		id := b.rec.begin("snapshot.SaveSnapshot", -1, int64(r))
		err = single.SaveSnapshot(ctx, &buf)
		b.rec.end(id, tally{"bytes", int64(buf.Len())})
		if err != nil {
			single.Close()
			closeEach(parts)
			return err
		}
		saved = buf.Len()
	}
	tables := 0
	if cs, ok := single.CorpusStats(); ok {
		tables = cs.Tables
	}
	one, err := serveSingle(ctx, single)
	if err != nil {
		closeEach(parts)
		return err
	}
	defer one.stop()
	cluster, err := serveCluster(ctx, parts, asns)
	if err != nil {
		return err
	}
	defer cluster.stop()

	if err := b.probeRequests(ctx, t.pool, one, cluster); err != nil {
		return err
	}
	if err := b.probeSearchCalls(ctx, t.pool, single); err != nil {
		return err
	}
	if err := b.probeIngest(ctx, t.world, single); err != nil {
		return err
	}
	return b.report(t, saved, tables)
}

// loadSnapshot loads snap into a single-node service and into one
// service per shard, recording a span around each load.
func (b *bench) loadSnapshot(ctx context.Context, snap []byte, rep int64) (*webtable.Service, []*webtable.Service, []webtable.ShardAssignment, error) {
	id := b.rec.begin("snapshot.LoadService", -1, rep)
	single, err := webtable.LoadService(ctx, bytes.NewReader(snap))
	b.rec.end(id)
	if err != nil {
		return nil, nil, nil, err
	}
	parts, asns, err := loadShards(ctx, b.rec, rep, snap, shards)
	if err != nil {
		single.Close()
		return nil, nil, nil, err
	}
	return single, parts, asns, nil
}

// probeSample is the fixed request sample: the plain bodies of the
// first probePerMode queries in every mode, and explain variants of the
// first probeExplain.
func probeSample(p *pool) []int {
	var out []int
	nq := len(p.bodies) / numVariants / len(modes)
	for q := 0; q < min(probePerMode, nq); q++ {
		for m := range modes {
			out = append(out, numVariants*(q*len(modes)+m)+plainVariant)
		}
	}
	for q := 0; q < min(probeExplain, nq); q++ {
		for m := range modes {
			out = append(out, numVariants*(q*len(modes)+m)+explainVariant)
		}
	}
	return out
}

// modeOf returns the mode index of a pool slot.
func modeOf(slot int) int { return slot / numVariants % len(modes) }

// probeRequests sends each sampled request through every layer in
// turn, under one "probe.request" span: in-process Search, the
// response encoding, the single node over HTTP, each shard's
// SearchPartial with the WTPART encode and decode, the router's merge,
// and the router over HTTP. Every answer is checked against the pool.
func (b *bench) probeRequests(ctx context.Context, p *pool, one, cluster *topology) error {
	rec := b.rec
	single := one.svcs[0]
	c1, c2 := newClient(one.url), newClient(cluster.url)
	defer c1.close()
	defer c2.close()
	for k, slot := range probeSample(p) {
		req64 := int64(k)
		var wr server.SearchRequest
		if err := server.DecodeJSON(bytes.NewReader(p.bodies[slot]), &wr); err != nil {
			return err
		}
		req, err := wr.Resolve(single)
		if err != nil {
			return err
		}
		mode := tally{"mode", int64(modeOf(slot))}
		parent := rec.begin("probe.request", -1, req64)

		id := rec.begin("search.Service.Search", parent, req64)
		res, err := single.Search(ctx, req)
		rec.end(id, append(statCounts(res), mode)...)
		if err != nil {
			return err
		}
		id = rec.begin("server.encode", parent, req64)
		enc, err := encodeResponse(single.Catalog(), res)
		rec.end(id, tally{"bytes", int64(len(enc))})
		b.check.searchResponse(http.StatusOK, enc, p.expect[slot], err)

		id = rec.begin("server.http", parent, req64)
		status, body, err := c1.do(ctx, http.MethodPost, "/v1/search", p.bodies[slot])
		rec.end(id, mode)
		b.check.searchResponse(status, body, p.expect[slot], err)

		groups := make([][]webtable.PartialGroup, shards)
		stats := make([]webtable.SearchExecStats, shards)
		for i, svc := range cluster.svcs {
			shard := tally{"shard", int64(i)}
			id := rec.begin("dist.SearchPartial", parent, req64)
			g, st, err := svc.SearchPartial(ctx, req, cluster.asns[i].TableOffset)
			rec.end(id, shard, mode)
			if err != nil {
				return err
			}
			gen := uint64(0)
			if cs, ok := svc.CorpusStats(); ok {
				gen = cs.Generation
			}
			id = rec.begin("dist.EncodePartial", parent, req64)
			wire := dist.EncodePartial(&dist.Partial{Generation: gen, Shard: i, Shards: shards, Stats: *st, Groups: g})
			rec.end(id, shard, tally{"bytes", int64(len(wire))})
			id = rec.begin("dist.DecodePartial", parent, req64)
			back, err := dist.DecodePartial(wire)
			rec.end(id, shard)
			if err != nil {
				return err
			}
			groups[i], stats[i] = back.Groups, back.Stats
		}
		id = rec.begin("dist.MergeSearchPartials", parent, req64)
		merged, err := webtable.MergeSearchPartials(groups, stats, req.PageSize, req.Cursor, req.Explain)
		rec.end(id)
		if err != nil {
			return err
		}
		menc, err := encodeResponse(single.Catalog(), merged)
		b.check.searchResponse(http.StatusOK, menc, p.expect[slot], err)

		id = rec.begin("dist.http", parent, req64)
		status, body, err = c2.do(ctx, http.MethodPost, "/v1/search", p.bodies[slot])
		rec.end(id, mode)
		b.check.searchResponse(status, body, p.expect[slot], err)
		rec.end(parent, mode)
	}
	return nil
}

// statCounts are the execution counts a search returned.
func statCounts(res *webtable.SearchResult) []tally {
	if res == nil || res.Stats == nil {
		return nil
	}
	st := res.Stats
	return []tally{
		{"rows", st.RowsScanned},
		{"pairs", st.CandidatePairs},
		{"pairs_matched", st.PairsMatched},
		{"plan_ns", st.Stage.Plan},
		{"scan_ns", st.Stage.Scan},
		{"aggregate_ns", st.Stage.Aggregate},
		{"select_ns", st.Stage.Select},
		{"explain_ns", st.Stage.Explain},
	}
}

// probeSearchCalls repeats in-process searches over the plain sample,
// probeCalls per mode, for medians and p99s of Service.Search.
func (b *bench) probeSearchCalls(ctx context.Context, p *pool, svc *webtable.Service) error {
	rec := b.rec
	var plain [][]int
	for range modes {
		plain = append(plain, nil)
	}
	for _, slot := range probeSample(p) {
		if slot%numVariants == plainVariant {
			plain[modeOf(slot)] = append(plain[modeOf(slot)], slot)
		}
	}
	for m, slots := range plain {
		reqs := make([]webtable.SearchRequest, len(slots))
		for i, slot := range slots {
			var wr server.SearchRequest
			if err := server.DecodeJSON(bytes.NewReader(p.bodies[slot]), &wr); err != nil {
				return err
			}
			var err error
			if reqs[i], err = wr.Resolve(svc); err != nil {
				return err
			}
		}
		for k := 0; k < probeCalls; k++ {
			id := rec.begin("search.Service.Search", -1, int64(k))
			res, err := svc.Search(ctx, reqs[k%len(reqs)])
			rec.end(id, append(statCounts(res), tally{"mode", int64(m)})...)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// probeIngest annotates probeBatches fresh batches with AnnotateCorpus,
// which gives the annotation layer's cost on unseen tables; adds each
// annotated batch to a segment store of its own, which gives the
// segment layer's cost alone (AddTables minus a second annotation of
// the same batch is smaller than annotation's run-to-run noise); and
// then adds the batch with AddTables, the whole write path.
func (b *bench) probeIngest(ctx context.Context, w *worldgen.World, svc *webtable.Service) error {
	rec := b.rec
	store, err := segment.New(svc.Catalog(), segment.Config{})
	if err != nil {
		return err
	}
	defer store.Close()
	for j := 0; j < probeBatches; j++ {
		tabs := tablesOf(freshBatch(w, "probe", b.opt.seed, j))
		id := rec.begin("core.AnnotateCorpus", -1, int64(j))
		anns, err := svc.AnnotateCorpus(ctx, tabs)
		rec.end(id, diagCounts(anns)...)
		if err != nil {
			return err
		}
		id = rec.begin("segment.Store.Add", -1, int64(j))
		_, err = store.Add(ctx, tabs, anns)
		rec.end(id, tally{"tables", int64(len(tabs))})
		if err != nil {
			return err
		}
		id = rec.begin("segment.AddTables", -1, int64(j))
		_, err = svc.AddTables(ctx, tabs)
		rec.end(id, tally{"tables", int64(len(tabs))})
		if err != nil {
			return err
		}
	}
	return nil
}

// diagCounts sums the annotation diagnostics of one batch.
func diagCounts(anns []*webtable.Annotation) []tally {
	var cells, cand, graph, bp, iters, unconverged, factors int64
	for _, a := range anns {
		if a == nil {
			continue
		}
		for _, row := range a.CellEntities {
			cells += int64(len(row))
		}
		cand += int64(a.Diag.CandidateGen)
		graph += int64(a.Diag.GraphBuild)
		bp += int64(a.Diag.Inference)
		iters += int64(a.Diag.Iterations)
		factors += int64(a.Diag.NumFactors)
		if !a.Diag.Converged {
			unconverged++
		}
	}
	return []tally{
		{"tables", int64(len(anns))}, {"cells", cells},
		{"candidates_ns", cand}, {"graph_ns", graph}, {"bp_ns", bp},
		{"bp_iters", iters}, {"bp_unconverged", unconverged}, {"factors", factors},
	}
}

// report turns the spans into the per-layer metrics.
func (b *bench) report(t *traceable, snapBytes, tables int) error {
	rec := b.rec
	us := float64(time.Microsecond)

	// internal/core, over the probe batches.
	ann := rec.named("core.AnnotateCorpus")
	total := func(spans []span, name string) float64 { return sum(countsOf(spans, name, 1)) }
	cells, nTables := total(ann, "cells"), total(ann, "tables")
	b.add("core.candidates_us_per_cell", "us", total(ann, "candidates_ns")/us/cells, "Annotation.Diag over the probe batches")
	b.add("core.graph_us_per_cell", "us", total(ann, "graph_ns")/us/cells, "")
	b.add("core.bp_us_per_cell", "us", total(ann, "bp_ns")/us/cells, "")
	b.add("core.annotate_ms_per_table", "ms", sum(durations(ann, time.Millisecond))/nTables, "AnnotateCorpus wall time")
	b.add("core.bp_iters_mean", "count", total(ann, "bp_iters")/nTables, "")
	b.add("core.bp_capped_ratio", "ratio", total(ann, "bp_unconverged")/nTables, "tables that hit MaxIters")
	b.add("core.factors_per_table", "count", total(ann, "factors")/nTables, "")

	// internal/segment.
	index := rec.named("segment.Store.Add")
	b.add("segment.index_ms_per_batch", "ms", median(durations(index, time.Millisecond)), fmt.Sprintf("Store.Add of annotated batches, median of %d batches of %d", len(index), ingestBatch))
	b.add("segment.add_ms_per_batch", "ms", median(durations(rec.named("segment.AddTables"), time.Millisecond)), "AddTables wall time")
	segs, tombs := 0, 0
	for _, cs := range t.phases.served {
		segs += cs.Segments
		tombs += cs.Tombstones
	}
	b.add("segment.segments_final", "count", float64(segs), "served corpus after the measured phase")
	b.add("segment.tombstones_final", "count", float64(tombs), "")

	// internal/snapshot.
	b.add("snapshot.save_ms", "ms", median(durations(rec.named("snapshot.SaveSnapshot"), time.Millisecond)), fmt.Sprintf("median of %d", probeReps))
	b.add("snapshot.load_ms", "ms", median(durations(rec.named("snapshot.LoadService"), time.Millisecond)), "")
	b.add("snapshot.load_shard_ms", "ms", median(durations(rec.named("snapshot.LoadServiceShard"), time.Millisecond)), "")
	b.add("snapshot.bytes_per_table", "bytes", float64(snapBytes)/float64(max(tables, 1)), fmt.Sprintf("%d tables", tables))

	// internal/search.
	// The repeated calls (no parent) give the per-mode timings; the
	// explain stage runs only on the probe requests that asked for it.
	searches := rec.named("search.Service.Search")
	byMode := make([][]span, len(modes))
	var explained []span
	for _, s := range searches {
		if s.Parent < 0 {
			m := s.count("mode")
			byMode[m] = append(byMode[m], s)
		} else if s.count("explain_ns") > 0 {
			explained = append(explained, s)
		}
	}
	var scanNS, rows, pairs, matched float64
	for m, name := range modes {
		ss := byMode[m]
		b.add("search.service_us."+name, "us", median(durations(ss, time.Microsecond)), fmt.Sprintf("in-process Search, %d calls", len(ss)))
		p99, err := percentile(durations(ss, time.Microsecond), 99)
		if err != nil {
			return err
		}
		b.add("search.service_p99_us."+name, "us", p99, "")
		b.add("search.plan_us."+name, "us", median(countsOf(ss, "plan_ns", us)), "SearchResult.Stats.Stage")
		b.add("search.scan_us."+name, "us", median(countsOf(ss, "scan_ns", us)), "")
		b.add("search.rows_per_query."+name, "count", median(countsOf(ss, "rows", 1)), "")
		scanNS += total(ss, "scan_ns")
		rows += total(ss, "rows")
		pairs += total(ss, "pairs")
		matched += total(ss, "pairs_matched")
	}
	loops := slices.Concat(byMode...)
	b.add("search.aggregate_us", "us", median(countsOf(loops, "aggregate_ns", us)), "")
	b.add("search.select_us", "us", median(countsOf(loops, "select_ns", us)), "")
	b.add("search.explain_us", "us", median(countsOf(explained, "explain_ns", us)), fmt.Sprintf("%d explain requests", len(explained)))
	b.add("search.scan_ns_per_row", "ns", scanNS/max(rows, 1), "")
	b.add("search.pairs_matched_ratio", "ratio", matched/max(pairs, 1), "candidate pairs that contributed a hit")

	// internal/server and internal/dist, per probe request.
	byReq := func(name string) map[int64][]span {
		out := make(map[int64][]span)
		for _, s := range rec.named(name) {
			if s.Parent >= 0 {
				out[s.Req] = append(out[s.Req], s)
			}
		}
		return out
	}
	inproc, httpOne, httpRouted := byReq("search.Service.Search"), byReq("server.http"), byReq("dist.http")
	partial, encode, decode, merge := byReq("dist.SearchPartial"), byReq("dist.EncodePartial"), byReq("dist.DecodePartial"), byReq("dist.MergeSearchPartials")
	var overhead, share, hop []float64
	partialUS := make([][]float64, shards)
	for _, p := range rec.named("probe.request") {
		k := p.Req
		search := inproc[k][0].dur()
		overhead = append(overhead, float64(httpOne[k][0].dur()-search)/us)
		var slowest time.Duration
		var ratio float64
		for i := 0; i < shards; i++ {
			part := partial[k][i].dur()
			partialUS[i] = append(partialUS[i], float64(part)/us)
			ratio += float64(part) / float64(search) / shards
			slowest = max(slowest, part+encode[k][i].dur()+decode[k][i].dur())
		}
		share = append(share, ratio)
		hop = append(hop, float64(httpRouted[k][0].dur()-slowest-merge[k][0].dur())/us)
	}
	b.add("server.overhead_us", "us", median(overhead), "one-client HTTP latency minus in-process Search")
	b.add("server.encode_us", "us", median(durations(rec.named("server.encode"), time.Microsecond)), "ToSearchResponse + JSON encode")
	b.add("server.resp_bytes", "bytes", median(countsOf(rec.named("server.encode"), "bytes", 1)), "")
	for i := range partialUS {
		b.add(fmt.Sprintf("dist.partial_us.shard%d", i), "us", median(partialUS[i]), "in-process SearchPartial")
	}
	b.add("dist.partial_share", "ratio", median(share), fmt.Sprintf("shard partial over single-node Search, mean of %d shards (ideal %.2f)", shards, 1.0/shards))
	b.add("dist.encode_us", "us", median(durations(rec.named("dist.EncodePartial"), time.Microsecond)), "")
	b.add("dist.decode_us", "us", median(durations(rec.named("dist.DecodePartial"), time.Microsecond)), "")
	b.add("dist.reply_bytes", "bytes", median(countsOf(rec.named("dist.EncodePartial"), "bytes", 1)), "WTPART reply size")
	b.add("dist.merge_us", "us", median(durations(rec.named("dist.MergeSearchPartials"), time.Microsecond)), "")
	b.add("dist.hop_us", "us", median(hop), "routed latency minus slowest partial+codec and merge")

	// The load generator and the tracing itself. The open loop is the
	// workload's own: the measured phase on search and routed, the reads
	// beside the writer on ingest.
	b.add("load.open_p50_ms", "ms", median(t.lat), fmt.Sprintf("median of %d open-loop latencies", len(t.lat)))
	pct, tailMS := tail(t.lat)
	b.add("load.tail_ms", "ms", tailMS, fmt.Sprintf("p%g of %d open-loop latencies", pct, len(t.lat)))
	b.add("load.tail_pct", "percentile", pct, "highest percentile with ten samples above it")
	_, lateMS := tail(t.late)
	b.add("load.late_ms", "ms", lateMS, fmt.Sprintf("p%g of %d open-loop send delays", pct, len(t.late)))
	b.add("load.repeat_share", "ratio", t.repeat, "requests whose body appeared earlier in the run")
	plain, traced := median(t.phases.plain), median(t.phases.traced)
	b.add("load.qps", "req/s", plain, fmt.Sprintf("closed loop, %d clients, median of the untraced slices", clients()))
	b.add("trace.overhead_pct", "%", 100*(plain-traced)/plain,
		fmt.Sprintf("closed-loop qps %.0f untraced, %.0f traced", plain, traced))
	return nil
}

// tail returns the highest of a few standard percentiles of xs that
// has at least ten samples above it, and its value.
func tail(xs []float64) (float64, float64) {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if v, err := percentile(xs, p); err == nil {
			return p, v
		}
	}
	return 50, median(xs)
}

// countsOf returns the named count of each span, divided by unit.
func countsOf(spans []span, name string, unit float64) []float64 {
	out := make([]float64, len(spans))
	for i := range spans {
		out[i] = float64(spans[i].count(name)) / unit
	}
	return out
}
