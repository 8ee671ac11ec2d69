package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	webtable "repro"
	"repro/internal/server"
	"repro/internal/worldgen"
)

// Load-generator settings. The open-loop rates are fixed numbers, not
// recomputed per run: about a quarter of the closed-loop throughput each
// topology reached at the seed on a 2-vCPU host in its slow periods (less
// in its fast ones). At half, queueing amplified the host's speed drift
// into run-to-run p50 differences of 2x.
const (
	searchRate = 1500 // req/s, single node
	routedRate = 700  // req/s, 2 shards behind the router
	// ingestRate is the rate of the reads beside the ingest writer, low
	// enough that searches, which wait for worker slots the annotator
	// holds, mostly keep up with the schedule; maxReads bounds them.
	ingestRate = 20
	maxReads   = ingestRate * 120
	shards     = 2
	// setupReps is how many times search and routed set up per
	// untraced run; ingest's set-up is cheaper and repeats
	// ingestSetupReps times. setup_s is the median.
	setupReps       = 2
	ingestSetupReps = 5
	warmup          = 250 * time.Millisecond
	qpsWindow       = 250 * time.Millisecond
	// reannotated is how many ingested tables are re-annotated
	// in-process and compared with the final snapshot.
	reannotated = 10
)

// deployment is what one set-up produced: the world, the corpus it
// annotated, the snapshot of the annotated corpus and the serving
// topology answering requests.
type deployment struct {
	world  *worldgen.World
	corpus worldgen.Dataset
	snap   []byte
	top    *topology
	// setup is the time from start until the topology answered its
	// first request; build is the annotate-and-index share of it.
	setup, build time.Duration
}

// setUp generates, annotates and indexes a corpus of n tables,
// round-trips it through a snapshot, serves the snapshot (as shards
// behind a router when routed) and sends the first request.
func setUp(ctx context.Context, b *bench, n int, routed bool) (*deployment, error) {
	rec := b.rec
	t0 := time.Now()
	root := rec.begin("setup", -1, -1)
	defer rec.end(root)
	d := &deployment{}
	var err error
	if err := rec.timed("worldgen.Build", root, -1, func() error {
		d.world, err = buildWorld()
		return err
	}); err != nil {
		return nil, err
	}
	var svc *webtable.Service
	if err := rec.timed("webtable.NewService", root, -1, func() error {
		svc, err = webtable.NewService(d.world.Public)
		return err
	}); err != nil {
		return nil, err
	}
	defer svc.Close()
	_ = rec.timed("worldgen.SearchCorpus", root, -1, func() error {
		d.corpus = d.world.SearchCorpus(n, b.opt.seed)
		return nil
	})
	// The corpus is indexed as two segments, BuildIndex over the first
	// half and AddTables of the second, so that each of the routed
	// workload's two shards owns half of it.
	tabs := tablesOf(d.corpus.Tables)
	bt := time.Now()
	if err := rec.timed("webtable.Service.BuildIndex", root, -1, func() error {
		_, err := svc.BuildIndex(ctx, tabs[:n/2])
		return err
	}); err != nil {
		return nil, err
	}
	if err := rec.timed("webtable.Service.AddTables", root, -1, func() error {
		_, err := svc.AddTables(ctx, tabs[n/2:])
		return err
	}); err != nil {
		return nil, err
	}
	d.build = time.Since(bt)
	var buf bytes.Buffer
	if err := rec.timed("webtable.Service.SaveSnapshot", root, -1, func() error {
		return svc.SaveSnapshot(ctx, &buf)
	}); err != nil {
		return nil, err
	}
	d.snap = buf.Bytes()
	if err := rec.timed("serve", root, -1, func() error {
		d.top, err = start(ctx, d.snap, routed)
		return err
	}); err != nil {
		return nil, err
	}
	first, err := baseBodies(d.world, queries(d.world, b.opt.seed)[:1])
	if err != nil {
		d.top.stop()
		return nil, err
	}
	c := newClient(d.top.url)
	defer c.close()
	id := rec.begin("http.search", root, -1)
	status, _, err := c.do(ctx, http.MethodPost, "/v1/search", first[0])
	rec.end(id)
	if err != nil || status != http.StatusOK {
		d.top.stop()
		return nil, fmt.Errorf("first request: HTTP %d: %v", status, err)
	}
	d.setup = time.Since(t0)
	return d, nil
}

// setUpRepeated sets up reps times (once when traced), keeping the last
// deployment, and returns the median set-up time and the median
// annotate-and-index throughput in tables per second.
func setUpRepeated(ctx context.Context, b *bench, n int, routed bool, reps int) (*deployment, float64, float64, error) {
	if b.rec != nil {
		reps = 1
	}
	var d *deployment
	var setups, rates []float64
	for r := 0; r < reps; r++ {
		if d != nil {
			d.top.stop()
		}
		var err error
		if d, err = setUp(ctx, b, n, routed); err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, d.setup.Seconds())
		rates = append(rates, float64(n)/d.build.Seconds())
		b.logf("set-up %d: %.3fs (annotate and index %.3fs, snapshot %d bytes)", r+1, d.setup.Seconds(), d.build.Seconds(), len(d.snap))
	}
	return d, median(setups), median(rates), nil
}

// searcher sends stream requests from a fixed set of clients and checks
// each response against the pool.
type searcher struct {
	check   *checker
	clients []*client
	pool    *pool
	stream  stream
	// next numbers the requests of the whole run, so the requests sent
	// are always a prefix of the stream.
	next *atomic.Int64
}

func newSearcher(b *bench, url string, p *pool, st stream, next *atomic.Int64) *searcher {
	s := &searcher{check: &b.check, pool: p, stream: st, next: next}
	for i := 0; i < clients(); i++ {
		s.clients = append(s.clients, newClient(url))
	}
	return s
}

func (s *searcher) close() {
	for _, c := range s.clients {
		c.close()
	}
}

// send issues stream request i from client c, recording a span under
// parent when rec is non-nil.
func (s *searcher) send(ctx context.Context, rec *recorder, c int, i int64, parent int) {
	slot := s.stream.slot(i)
	id := rec.begin("http.search", parent, i)
	status, body, err := s.clients[c].do(ctx, http.MethodPost, "/v1/search", s.pool.bodies[slot])
	rec.end(id, tally{"bytes", int64(len(body))})
	s.check.searchResponse(status, body, s.pool.expect[slot], err)
}

// closed runs a closed-loop phase for dur, tracing it when rec is
// non-nil, and returns its throughput in requests per second.
func (s *searcher) closed(ctx context.Context, rec *recorder, dur time.Duration) float64 {
	phase := rec.begin("phase.closed", -1, -1)
	done := closedLoop(ctx, len(s.clients), dur, s.next, func(c int, i int64) {
		s.send(ctx, rec, c, i, phase)
	})
	rec.end(phase, tally{"requests", int64(len(done))})
	return windowRate(done, dur, qpsWindow)
}

// open runs an open-loop phase of dur at rate and returns each
// request's latency and lateness in milliseconds.
func (s *searcher) open(ctx context.Context, rec *recorder, dur time.Duration, rate float64) (lat, late []float64) {
	n := int(rate * dur.Seconds())
	first := s.next.Add(int64(n)) - int64(n)
	phase := rec.begin("phase.open", -1, -1)
	lat, late = openLoop(ctx, len(s.clients), n, rate, nil, func(c, k int) {
		s.send(ctx, rec, c, first+int64(k), phase)
	})
	rec.end(phase, tally{"requests", int64(n)})
	return lat, late
}

// traceable is what the per-layer report reads from a traced run: the
// measured phases, the open-loop latencies of the workload (the reads
// beside the writer on ingest), the share of repeated request bodies,
// and the served corpus with its snapshot and request pool.
type traceable struct {
	phases    *searchPhases
	lat, late []float64
	repeat    float64
	world     *worldgen.World
	snap      []byte
	pool      *pool
}

// heapMB is the live heap after a forced collection, in megabytes.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runSearch is the search workload (single node) and, with routed, the
// routed workload (2 shards behind the router): the same corpus, seed
// and request stream on two topologies.
func runSearch(ctx context.Context, b *bench, routed bool) error {
	d, setup, buildRate, err := setUpRepeated(ctx, b, searchTables, routed, setupReps)
	if err != nil {
		return err
	}
	// The set-up's topology has answered its first request; the
	// measured phases run on fresh instances.
	d.top.stop()
	d.top = nil
	qs := queries(d.world, b.opt.seed)
	base, err := baseBodies(d.world, qs)
	if err != nil {
		return err
	}
	// The expected bytes always come from a single node, so the router
	// must reproduce them exactly.
	ref, err := webtable.LoadService(ctx, bytes.NewReader(d.snap))
	if err != nil {
		return err
	}
	defer ref.Close()
	p, err := buildPool(ctx, ref, base)
	if err != nil {
		return err
	}
	st := stream{seed: b.opt.seed, bases: len(base)}
	rate := float64(searchRate)
	if routed {
		rate = routedRate
	}
	// The open loop, whose median is reported, gets the larger share.
	m, err := b.measureSearch(ctx, d.snap, routed, p, st, 0.3, 0.7, rate)
	if err != nil {
		return err
	}
	anns, err := snapshotAnnotations(d.snap)
	if err != nil {
		return err
	}
	acc := b.check.entityAccuracy(anns, d.corpus.Tables)
	mapTR, err := meanAveragePrecision(ctx, ref, d.world, qs)
	if err != nil {
		return err
	}
	if b.rec != nil {
		return b.layers(ctx, &traceable{phases: m, lat: m.lat, late: m.late, repeat: repeatShare(m.sent, st.slot),
			world: d.world, snap: d.snap, pool: p})
	}
	b.add("setup_s", "s", setup, fmt.Sprintf("median of %d set-ups of %d tables", setupReps, searchTables))
	b.add("p50_ms", "ms", m.p50, fmt.Sprintf("open loop at %.0f req/s, median of %d instances, %d requests", rate, instances, len(m.lat)))
	b.add("tables_per_s", "tables/s", buildRate, "BuildIndex + AddTables during set-up")
	b.add("heap_mb", "MB", m.heap, "live heap after GC")
	b.add("annot_acc", "ratio", acc, fmt.Sprintf("cell entities of %d corpus tables", len(d.corpus.Tables)))
	b.add("map_typerel", "ratio", mapTR, fmt.Sprintf("%d TypeRel queries", len(qs)))
	pct, late := tail(m.late)
	b.logf("qps %.0f req/s (closed loop, %d clients, median of %d instances); stream: %d requests over %d distinct bodies (%d page-2 with a cursor), repeat share %.3f; open loop sent late by %.3f ms at p%g",
		m.qps, clients(), instances, m.sent, len(p.bodies), p.cursors(), repeatShare(m.sent, st.slot), late, pct)
	return nil
}

// instances is how many fresh topologies, each loaded from the
// snapshot, share a run's measured search phases. Throughput differs by
// several percent from one loaded instance to the next (map hash seeds
// and heap layout change with every load), so a run reports the median
// over instances rather than one instance's figure.
const instances = 4

// searchPhases is what the measured search phases of a run produced.
type searchPhases struct {
	// qps and p50 are medians over instances of the untraced phases;
	// qps is printed, not reported: closed-loop throughput saturates the
	// host's CPUs and moves with the host's speed by more than any
	// end-to-end bound allows.
	qps, p50 float64
	// plain and traced are the closed-loop rates of the alternating
	// untraced and traced slices of a traced run.
	plain, traced []float64
	// lat and late are every open-loop request's latency and lateness.
	lat, late []float64
	// sent counts the stream requests sent.
	sent int64
	// heap and served describe the last instance after its phases.
	heap   float64
	served []webtable.CorpusStats
}

// measureSearch runs the closed-loop phase (closedShare of the measured
// time) and then the open-loop phase at rate (openShare) on each of
// instances fresh topologies loaded from snap, checking every response
// against the pool.
func (b *bench) measureSearch(ctx context.Context, snap []byte, routed bool, p *pool, st stream, closedShare, openShare, rate float64) (*searchPhases, error) {
	m := &searchPhases{}
	var next atomic.Int64
	var qps, p50 []float64
	for r := 0; r < instances; r++ {
		top, err := start(ctx, snap, routed)
		if err != nil {
			return nil, err
		}
		s := newSearcher(b, top.url, p, st, &next)
		s.closed(ctx, nil, warmup)
		closedDur := b.seconds(closedShare) / instances
		if b.rec == nil {
			qps = append(qps, s.closed(ctx, nil, closedDur))
		} else {
			// Alternating halves: the difference between the untraced
			// and traced rates is the tracing overhead.
			m.plain = append(m.plain, s.closed(ctx, nil, closedDur/2))
			m.traced = append(m.traced, s.closed(ctx, b.rec, closedDur/2))
		}
		lat, late := s.open(ctx, b.rec, b.seconds(openShare)/instances, rate)
		v, err := percentile(lat, 50)
		if err != nil {
			s.close()
			top.stop()
			return nil, err
		}
		p50 = append(p50, v)
		m.lat, m.late = append(m.lat, lat...), append(m.late, late...)
		if r == instances-1 {
			m.heap = heapMB()
			for _, svc := range top.svcs {
				if cs, ok := svc.CorpusStats(); ok {
					m.served = append(m.served, cs)
				}
			}
		}
		s.close()
		top.stop()
	}
	m.qps, m.p50, m.sent = median(qps), median(p50), next.Load()
	return m, ctx.Err()
}

// runIngest is the ingest workload: one client posts fixed batches of
// fresh tables (and deletes a few base tables) while a second sends
// searches open-loop at a low fixed rate. Then the final corpus is
// snapshotted and reloaded, the live server must answer every body as
// the reloaded copy does, and reloaded instances are searched
// closed-loop and open-loop.
func runIngest(ctx context.Context, b *bench) error {
	d, setup, _, err := setUpRepeated(ctx, b, ingestBaseTables, false, ingestSetupReps)
	if err != nil {
		return err
	}
	defer d.top.stop()
	svc := d.top.svcs[0]
	qs := queries(d.world, b.opt.seed)
	base, err := baseBodies(d.world, qs)
	if err != nil {
		return err
	}
	st := stream{seed: b.opt.seed, bases: len(base)}

	// A fixed number of batches, 1.5 per second of measured time: the
	// corpus every run ends with depends on the seed and --seconds
	// alone, and the writer takes about half of the measured time.
	nBatches := 3 * b.opt.seconds / 2
	var ingested []worldgen.LabeledTable
	posts := make([][]byte, nBatches)
	for j := range posts {
		batch := freshBatch(d.world, "ingest", b.opt.seed, j)
		ingested = append(ingested, batch...)
		if posts[j], err = json.Marshal(server.AddTablesRequest{Tables: tablesOf(batch)}); err != nil {
			return err
		}
	}
	deletes := rand.New(rand.NewSource(b.opt.seed)).Perm(len(d.corpus.Tables))

	// The writer and the open-loop reader run side by side; the reader
	// stops when the writer is done.
	writing := make(chan struct{})
	var lat, late []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reader := newClient(d.top.url)
		defer reader.close()
		phase := b.rec.begin("phase.reads", -1, -1)
		lat, late = openLoop(ctx, 1, maxReads, ingestRate, writing, func(_, k int) {
			b.readDuringIngest(ctx, reader, base[st.base(int64(k))], k, phase)
		})
		b.rec.end(phase, tally{"requests", int64(len(lat))})
	}()
	live, batchMS, ingestDur := b.ingest(ctx, d, posts, deletes)
	close(writing)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}

	// The final state: the live count must be exact, and the final
	// snapshot, reloaded, must answer exactly as the live server does.
	stats, ok := svc.CorpusStats()
	var final bytes.Buffer
	if err := svc.SaveSnapshot(ctx, &final); err != nil {
		return err
	}
	reloaded, err := webtable.LoadService(ctx, bytes.NewReader(final.Bytes()))
	if err != nil {
		return err
	}
	defer reloaded.Close()
	rs, _ := reloaded.CorpusStats()
	b.check.ok(ok && stats.Tables == live && rs.Tables == live, func() string {
		return fmt.Sprintf("live tables %d, reloaded %d, want %d", stats.Tables, rs.Tables, live)
	})
	p, err := buildPool(ctx, reloaded, base)
	if err != nil {
		return err
	}
	sweep := newClient(d.top.url)
	for slot := range p.bodies {
		status, body, err := sweep.do(ctx, http.MethodPost, "/v1/search", p.bodies[slot])
		b.check.searchResponse(status, body, p.expect[slot], err)
	}
	sweep.close()
	m, err := b.measureSearch(ctx, final.Bytes(), false, p, st, 0.2, 0.5, searchRate)
	if err != nil {
		return err
	}

	// A fixed sample of ingested tables, re-annotated in-process, must
	// match the annotations the final snapshot holds.
	anns, err := snapshotAnnotations(final.Bytes())
	if err != nil {
		return err
	}
	for k := 0; k < reannotated; k++ {
		lt := ingested[k*len(ingested)/reannotated]
		got, err := reloaded.AnnotateTable(ctx, lt.Table)
		want := anns[lt.Table.ID]
		b.check.ok(err == nil && want != nil && sameAnnotation(got, want), func() string {
			return fmt.Sprintf("re-annotating %s disagrees with the final snapshot (err %v)", lt.Table.ID, err)
		})
	}
	acc := b.check.entityAccuracy(anns, ingested)
	mapTR, err := meanAveragePrecision(ctx, reloaded, d.world, qs)
	if err != nil {
		return err
	}
	if b.rec != nil {
		return b.layers(ctx, &traceable{phases: m, lat: lat, late: late, repeat: repeatShare(int64(len(lat)), st.base),
			world: d.world, snap: final.Bytes(), pool: p})
	}
	b.add("setup_s", "s", setup, fmt.Sprintf("median of %d set-ups of %d tables", ingestSetupReps, ingestBaseTables))
	b.add("p50_ms", "ms", m.p50, fmt.Sprintf("open loop at %d req/s over the reloaded final corpus, median of %d instances", searchRate, instances))
	b.add("tables_per_s", "tables/s", float64(len(ingested))/ingestDur.Seconds(), fmt.Sprintf("%d tables in %d POST /v1/tables", len(ingested), nBatches))
	b.add("heap_mb", "MB", m.heap, "live heap after GC")
	b.add("annot_acc", "ratio", acc, fmt.Sprintf("cell entities of %d ingested tables", len(ingested)))
	b.add("map_typerel", "ratio", mapTR, fmt.Sprintf("%d TypeRel queries over the final corpus", len(qs)))
	pct, lateMS := tail(late)
	b.logf("qps %.0f req/s (closed loop over the reloaded final corpus, median of %d instances)", m.qps, instances)
	b.logf("batch_p50_ms %.3f ms over %d batches; reads beside the writer: p50 %.3f ms over %d, sent late by %.3f ms at p%g; final corpus %d tables, %d segments, %d tombstones",
		median(batchMS), len(batchMS), median(lat), len(lat), lateMS, pct, stats.Tables, stats.Segments, stats.Tombstones)
	return nil
}

// ingest posts every batch in order from one client, deleting one base
// table after every third batch, and checks each response's corpus
// counters. It returns the expected live table count, each batch's
// latency in milliseconds and the wall time of the whole phase.
func (b *bench) ingest(ctx context.Context, d *deployment, posts [][]byte, deletes []int) (int, []float64, time.Duration) {
	c := newClient(d.top.url)
	defer c.close()
	phase := b.rec.begin("phase.ingest", -1, -1)
	defer b.rec.end(phase)
	live := len(d.corpus.Tables)
	var batchMS []float64
	start := time.Now()
	for j, body := range posts {
		if ctx.Err() != nil {
			break
		}
		live += ingestBatch
		t0 := time.Now()
		id := b.rec.begin("http.add_tables", phase, int64(j))
		status, raw, err := c.do(ctx, http.MethodPost, "/v1/tables", body)
		b.rec.end(id, tally{"tables", ingestBatch})
		batchMS = append(batchMS, millis(time.Since(t0)))
		b.mutation(status, raw, err, ingestBatch, 0, live)
		if j%3 == 2 {
			live--
			victim := d.corpus.Tables[deletes[j/3]].Table.ID
			id := b.rec.begin("http.delete_table", phase, int64(j))
			status, raw, err := c.do(ctx, http.MethodDelete, "/v1/tables/"+url.PathEscape(victim), nil)
			b.rec.end(id)
			b.mutation(status, raw, err, 0, 1, live)
		}
	}
	return live, batchMS, time.Since(start)
}

// mutation checks one POST or DELETE /v1/tables response.
func (b *bench) mutation(status int, raw []byte, err error, added, removed, live int) {
	var mr server.MutateResponse
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(raw, &mr)
	}
	b.check.ok(err == nil && status == http.StatusOK && mr.Added == added && mr.Removed == removed && mr.Tables == live, func() string {
		return fmt.Sprintf("mutation: HTTP %d (%v): %s; want added %d removed %d tables %d", status, err, clip(raw), added, removed, live)
	})
}

// readDuringIngest sends one search while the corpus changes under it.
// The answer cannot be known in advance, so it is checked for shape:
// a 200 whose page fits the page size and the total.
func (b *bench) readDuringIngest(ctx context.Context, c *client, body []byte, k, parent int) {
	id := b.rec.begin("http.search", parent, int64(k))
	status, raw, err := c.do(ctx, http.MethodPost, "/v1/search", body)
	b.rec.end(id, tally{"bytes", int64(len(raw))})
	var sr server.SearchResponse
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(raw, &sr)
	}
	b.check.ok(err == nil && status == http.StatusOK && len(sr.Answers) <= pageSize && len(sr.Answers) <= sr.Total, func() string {
		return fmt.Sprintf("search during ingest: HTTP %d (%v): %s", status, err, clip(raw))
	})
}
