// Package dist implements distributed segment serving: shard servers
// that own contiguous slices of a snapshot's segment manifest and
// export partial search evidence over HTTP, and a stateless
// scatter-gather router that merges those partials into result pages
// identical to a single node serving the whole corpus.
//
// Topology:
//
//	                      ┌────────────┐   snapshot segments [0,k)
//	client ──► router ──► │ tabshard 0 │   (tables 0..t₀)
//	          (tabserved  └────────────┘
//	           -shards)   ┌────────────┐   snapshot segments [k,n)
//	                 └──► │ tabshard 1 │   (tables t₀..t)
//	                      └────────────┘
//
// Every process loads the same snapshot file; the shard placement is a
// deterministic function of the manifest (snapshot.AssignShards), so
// shards agree on who owns which global table numbers without any
// coordination. The router holds no corpus state at all: it forwards
// the client's request bytes to every shard, gathers one summary per
// answer cluster from each (internal/search's PartialGroup), and sums
// them with the same merge step a single node uses between its
// parallel scan ranges. Scores are fixed-point: each hit's evidence is
// quantized once to int64 units of 2⁻³² (search.ScoreScale), so
// per-shard sums add up to exactly the single-node score whatever the
// shard layout. One hit is under 2³³ units, so an int64 holds more than
// 2³⁰ hits per cluster; presented scores are float64(units)/2³², which
// differs from a float sum of the raw evidence in the low-order
// digits. Totals, cursors, dominant surface forms and explanations
// (canonical order, at most search.MaxExplainSources sources per
// cluster) merge exactly too.
//
// Failure semantics are structural, never silent: a shard that stays
// unreachable after bounded retries fails the whole request with a 502
// naming the shard (a partial cluster must not quietly return a subset
// of the corpus), client errors (4xx) from shards propagate as-is, and
// shards drain gracefully on shutdown.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/search"
)

// partialMagic heads every partial-evidence payload.
var partialMagic = [6]byte{'W', 'T', 'P', 'A', 'R', 'T'}

// PartialVersion is the partial-evidence wire version. Version 3
// carries one fixed-point summary per answer cluster; the reader
// accepts no other version.
const PartialVersion = 3

// ErrBadPartial reports a partial-evidence payload that is not
// well-formed: wrong magic, unknown version, truncation, trailing
// garbage, or a summary that breaks the format's invariants.
var ErrBadPartial = errors.New("dist: malformed partial payload")

// Partial is one shard's response to a partial-evidence query: the
// cluster summaries plus the identity envelope the router verifies
// before merging (a shard answering for the wrong slice or a different
// corpus generation would silently corrupt the merge).
type Partial struct {
	// Generation is the corpus generation the shard serves.
	Generation uint64
	// Shard and Shards identify the responder's slice of the cluster.
	Shard, Shards int
	// Stats is the shard-local execution cost of producing Groups.
	Stats search.ExecStats
	// Groups holds one summary per answer cluster, ascending by Key.
	Groups []search.PartialGroup
}

// partialStatsLen is the byte length of the execution-stats block: 3
// u64 counters, 4 u32 small counts, 6 u64 stage nanos.
const partialStatsLen = 3*8 + 4*4 + 6*8

// maxSourceUnits bounds one source's score units: a single hit's
// evidence is at most 1.5, under 2³³ units.
const maxSourceUnits = 1 << 33

// EncodePartial serializes p. Layout (all integers big-endian):
//
//	magic "WTPART", version u8, generation u64, shard u32, shards u32,
//	stats block (candidate-pairs u64, pairs-matched u64, rows-scanned
//	u64, segments u32, tombstones u32, answers-before-topk u32,
//	parallelism u32, then validate/plan/scan/aggregate/select/explain
//	stage nanos as 6 × u64), clusters u32, then per cluster: entity
//	i32 (-1 = text cluster), name string (canonical name of an entity
//	cluster, normalized key of a text cluster), score u64 (units of
//	2⁻³²), support u32, variants u32 × (raw string, count u32), sources
//	u32 × (table i32, row i32, col i32, score u64 units).
//
// Strings are u32 length + bytes.
func EncodePartial(p *Partial) []byte {
	size := 6 + 1 + 8 + 4 + 4 + partialStatsLen + 4
	for i := range p.Groups {
		g := &p.Groups[i]
		size += 4 + 4 + len(g.Canonical) + len(g.Norm) + 8 + 4 + 4 + 4 + 20*len(g.Sources)
		for _, v := range g.Variants {
			size += 8 + len(v.Raw)
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, partialMagic[:]...)
	buf = append(buf, PartialVersion)
	buf = binary.BigEndian.AppendUint64(buf, p.Generation)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Shard))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Shards))
	st := &p.Stats
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.CandidatePairs))
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.PairsMatched))
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.RowsScanned))
	buf = binary.BigEndian.AppendUint32(buf, uint32(st.SegmentsVisited))
	buf = binary.BigEndian.AppendUint32(buf, uint32(st.TombstonesSkipped))
	buf = binary.BigEndian.AppendUint32(buf, uint32(st.AnswersBeforeTopK))
	buf = binary.BigEndian.AppendUint32(buf, uint32(st.Parallelism))
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.Stage.Validate))
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.Stage.Plan))
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.Stage.Scan))
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.Stage.Aggregate))
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.Stage.Select))
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.Stage.Explain))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Groups)))
	appendString := func(s string) {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	for i := range p.Groups {
		g := &p.Groups[i]
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(g.Entity)))
		if g.Entity != catalog.None {
			appendString(g.Canonical)
		} else {
			appendString(g.Norm)
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(g.Score))
		buf = binary.BigEndian.AppendUint32(buf, uint32(g.Support))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(g.Variants)))
		for _, v := range g.Variants {
			appendString(v.Raw)
			buf = binary.BigEndian.AppendUint32(buf, uint32(v.Count))
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(g.Sources)))
		for _, src := range g.Sources {
			buf = binary.BigEndian.AppendUint32(buf, uint32(int32(src.Table)))
			buf = binary.BigEndian.AppendUint32(buf, uint32(int32(src.Row)))
			buf = binary.BigEndian.AppendUint32(buf, uint32(int32(src.Col)))
			buf = binary.BigEndian.AppendUint64(buf, uint64(src.Score*search.ScoreScale))
		}
	}
	return buf
}

// partialReader is a bounds-checked cursor over an encoded payload.
type partialReader struct {
	data []byte
	off  int
}

func (r *partialReader) remaining() int { return len(r.data) - r.off }

func (r *partialReader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("%w: truncated at byte %d (need %d more)", ErrBadPartial, r.off, n)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *partialReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *partialReader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (r *partialReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// count reads an element count and sanity-checks it against the bytes
// remaining (each element needs at least min bytes), so a corrupted
// count fails as truncation instead of allocating unbounded memory.
func (r *partialReader) count(min int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(min) > int64(r.remaining()) {
		return 0, fmt.Errorf("%w: count %d exceeds remaining %d bytes", ErrBadPartial, n, r.remaining())
	}
	return int(n), nil
}

// DecodePartial deserializes one payload, validating it strictly:
// magic, version 3 only, bounds on every count, cluster keys strictly
// ascending (a repeated cluster would be double-counted by the merge),
// support of at least 1, no negative score, at most min(support,
// search.MaxExplainSources) sources each with 1 to 2³³−1 units, and no
// trailing bytes. Every error wraps ErrBadPartial.
func DecodePartial(data []byte) (*Partial, error) {
	r := &partialReader{data: data}
	head, err := r.take(len(partialMagic))
	if err != nil {
		return nil, err
	}
	if string(head) != string(partialMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadPartial)
	}
	ver, err := r.take(1)
	if err != nil {
		return nil, err
	}
	if ver[0] != PartialVersion {
		return nil, fmt.Errorf("%w: version %d, reader supports %d", ErrBadPartial, ver[0], PartialVersion)
	}
	p := &Partial{}
	if p.Generation, err = r.u64(); err != nil {
		return nil, err
	}
	shard, err := r.u32()
	if err != nil {
		return nil, err
	}
	shards, err := r.u32()
	if err != nil {
		return nil, err
	}
	p.Shard, p.Shards = int(shard), int(shards)
	b, err := r.take(partialStatsLen)
	if err != nil {
		return nil, err
	}
	st := &p.Stats
	st.CandidatePairs = int64(binary.BigEndian.Uint64(b[0:8]))
	st.PairsMatched = int64(binary.BigEndian.Uint64(b[8:16]))
	st.RowsScanned = int64(binary.BigEndian.Uint64(b[16:24]))
	st.SegmentsVisited = int(int32(binary.BigEndian.Uint32(b[24:28])))
	st.TombstonesSkipped = int(int32(binary.BigEndian.Uint32(b[28:32])))
	st.AnswersBeforeTopK = int(int32(binary.BigEndian.Uint32(b[32:36])))
	st.Parallelism = int(int32(binary.BigEndian.Uint32(b[36:40])))
	st.Stage.Validate = int64(binary.BigEndian.Uint64(b[40:48]))
	st.Stage.Plan = int64(binary.BigEndian.Uint64(b[48:56]))
	st.Stage.Scan = int64(binary.BigEndian.Uint64(b[56:64]))
	st.Stage.Aggregate = int64(binary.BigEndian.Uint64(b[64:72]))
	st.Stage.Select = int64(binary.BigEndian.Uint64(b[72:80]))
	st.Stage.Explain = int64(binary.BigEndian.Uint64(b[80:88]))
	// A cluster is at least entity, name length, score, support and the
	// two list counts.
	nGroups, err := r.count(4 + 4 + 8 + 4 + 4 + 4)
	if err != nil {
		return nil, err
	}
	if nGroups > 0 {
		p.Groups = make([]search.PartialGroup, nGroups)
	}
	prevKey := ""
	for gi := range p.Groups {
		g := &p.Groups[gi]
		ent, err := r.u32()
		if err != nil {
			return nil, err
		}
		g.Entity = catalog.EntityID(int32(ent))
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		if g.Entity != catalog.None {
			g.Canonical = name
		} else {
			g.Norm = name
		}
		key := g.Key()
		if gi > 0 && key <= prevKey {
			return nil, fmt.Errorf("%w: cluster keys not strictly ascending (%q after %q)", ErrBadPartial, key, prevKey)
		}
		prevKey = key
		score, err := r.u64()
		if err != nil {
			return nil, err
		}
		if g.Score = int64(score); g.Score < 0 {
			return nil, fmt.Errorf("%w: cluster %q has negative score", ErrBadPartial, key)
		}
		support, err := r.u32()
		if err != nil {
			return nil, err
		}
		if g.Support = int(support); g.Support == 0 {
			return nil, fmt.Errorf("%w: cluster %q has zero support", ErrBadPartial, key)
		}
		nVars, err := r.count(8)
		if err != nil {
			return nil, err
		}
		if nVars > 0 {
			g.Variants = make([]search.Variant, nVars)
		}
		for vi := range g.Variants {
			raw, err := r.str()
			if err != nil {
				return nil, err
			}
			cnt, err := r.u32()
			if err != nil {
				return nil, err
			}
			g.Variants[vi] = search.Variant{Raw: raw, Count: int(cnt)}
		}
		nSrcs, err := r.count(20)
		if err != nil {
			return nil, err
		}
		if nSrcs > min(g.Support, search.MaxExplainSources) {
			return nil, fmt.Errorf("%w: cluster %q has %d sources for support %d", ErrBadPartial, key, nSrcs, g.Support)
		}
		if nSrcs > 0 {
			g.Sources = make([]search.SourceRef, nSrcs)
		}
		for si := range g.Sources {
			b, err := r.take(20)
			if err != nil {
				return nil, err
			}
			units := binary.BigEndian.Uint64(b[12:20])
			if units == 0 || units >= maxSourceUnits {
				return nil, fmt.Errorf("%w: cluster %q source score %d units out of range", ErrBadPartial, key, units)
			}
			g.Sources[si] = search.SourceRef{
				Table: int(int32(binary.BigEndian.Uint32(b[0:4]))),
				Row:   int(int32(binary.BigEndian.Uint32(b[4:8]))),
				Col:   int(int32(binary.BigEndian.Uint32(b[8:12]))),
				Score: float64(units) / search.ScoreScale,
			}
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPartial, r.remaining())
	}
	return p, nil
}
