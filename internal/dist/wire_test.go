package dist

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/search"
)

// samplePartial exercises every field: entity and text clusters, empty
// and full variant and source lists, the largest and smallest source
// scores, and a cluster score near the int64 limit.
func samplePartial() *Partial {
	return &Partial{
		Generation: 42,
		Shard:      1,
		Shards:     3,
		Stats: search.ExecStats{
			CandidatePairs:    12,
			PairsMatched:      5,
			RowsScanned:       321,
			SegmentsVisited:   2,
			TombstonesSkipped: 1,
			AnswersBeforeTopK: 9,
			Parallelism:       3,
			Stage: search.StageNanos{
				Validate: 100, Plan: 200, Scan: 300000,
				Aggregate: 0, Select: 0, Explain: 0,
			},
		},
		Groups: []search.PartialGroup{
			{
				Entity:    7,
				Canonical: "Epic Saga",
				Score:     math.MaxInt64,
				Support:   3,
				Sources: []search.SourceRef{
					{Table: 0, Row: 3, Col: 1, Score: 0.375},
					{Table: 2147483000, Row: 0, Col: 0, Score: 1.5},
				},
			},
			{
				Entity:  catalog.None,
				Norm:    "solo auteur",
				Score:   3 << 31,
				Support: 3,
				Variants: []search.Variant{
					{Raw: "  Solo Auteur  ", Count: 2},
					{Raw: "SOLO AUTEUR", Count: 1},
				},
				Sources: []search.SourceRef{{Table: 1, Row: 2, Col: 0, Score: 1.0 / search.ScoreScale}},
			},
			{Entity: catalog.None, Norm: "x", Score: 1, Support: 1,
				Variants: []search.Variant{{Raw: "x", Count: 1}}},
		},
	}
}

func TestPartialRoundTrip(t *testing.T) {
	for _, p := range []*Partial{
		samplePartial(),
		{Generation: 1, Shard: 0, Shards: 1, Groups: nil},
	} {
		data := EncodePartial(p)
		got, err := DecodePartial(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, p)
		}
	}
}

// TestPartialEvidenceBitExact pins the fixed-point evidence on the
// wire: cluster score units and source scores survive exactly at the
// extremes of their ranges.
func TestPartialEvidenceBitExact(t *testing.T) {
	top := float64(1<<33-1) / search.ScoreScale
	p := &Partial{Shards: 1, Groups: []search.PartialGroup{{
		Entity: catalog.None, Norm: "n", Score: math.MaxInt64 - 1, Support: 2,
		Sources: []search.SourceRef{{Score: top}, {Score: 1.0 / search.ScoreScale}},
	}}}
	got, err := DecodePartial(EncodePartial(p))
	if err != nil {
		t.Fatal(err)
	}
	g := got.Groups[0]
	if g.Score != math.MaxInt64-1 {
		t.Fatalf("score units %d, want %d", g.Score, int64(math.MaxInt64-1))
	}
	if g.Sources[0].Score != top || g.Sources[1].Score != 1.0/search.ScoreScale {
		t.Fatalf("source scores %v, want %v and 2^-32", g.Sources, top)
	}
}

// TestDecodePartialTruncation decodes every strict prefix of a valid
// payload: all must fail with ErrBadPartial, none may panic.
func TestDecodePartialTruncation(t *testing.T) {
	data := EncodePartial(samplePartial())
	for n := 0; n < len(data); n++ {
		if _, err := DecodePartial(data[:n]); !errors.Is(err, ErrBadPartial) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrBadPartial", n, err)
		}
	}
}

// TestDecodePartialFutureVersion pins forward incompatibility: a
// payload claiming a version above PartialVersion fails with
// ErrBadPartial before any field decode — the version gate sits
// directly after the magic, so even a payload truncated right after the
// version byte reports the unsupported version, not truncation.
func TestDecodePartialFutureVersion(t *testing.T) {
	full := append([]byte(nil), EncodePartial(samplePartial())...)
	full[6] = PartialVersion + 1
	if _, err := DecodePartial(full); !errors.Is(err, ErrBadPartial) {
		t.Fatalf("v%d payload: err = %v, want ErrBadPartial", PartialVersion+1, err)
	}
	// Magic + version byte only: nothing after the version exists to
	// decode, so an error mentioning the version proves the gate fired
	// before any field was read.
	short := append(append([]byte(nil), partialMagic[:]...), PartialVersion+1)
	_, err := DecodePartial(short)
	if !errors.Is(err, ErrBadPartial) {
		t.Fatalf("truncated v%d payload: err = %v, want ErrBadPartial", PartialVersion+1, err)
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("truncated future-version payload failed as %q, want a version error (gate must precede field decode)", err)
	}
}

func TestDecodePartialRejects(t *testing.T) {
	valid := EncodePartial(samplePartial())

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'

	trailing := append(append([]byte(nil), valid...), 0xFF)

	// Corrupt the cluster count (the 4 bytes after the 23-byte header and
	// the 88-byte stats block) to something absurd: must fail bounds
	// checking, not allocate.
	const countOff = 23 + partialStatsLen
	hugeCount := append([]byte(nil), valid...)
	hugeCount[countOff], hugeCount[countOff+1] = 0xFF, 0xFF
	hugeCount[countOff+2], hugeCount[countOff+3] = 0xFF, 0xFF

	cases := map[string][]byte{
		"bad magic":      badMagic,
		"trailing bytes": trailing,
		"huge count":     hugeCount,
		"empty":          nil,
	}
	for _, v := range []byte{1, 2, 4, 99} {
		old := append([]byte(nil), valid...)
		old[6] = v
		cases[fmt.Sprintf("version %d", v)] = old
	}
	text := func(norm string, score int64, support int, srcs ...search.SourceRef) search.PartialGroup {
		return search.PartialGroup{Entity: catalog.None, Norm: norm, Score: score, Support: support, Sources: srcs}
	}
	src := func(units uint64) search.SourceRef {
		return search.SourceRef{Score: float64(units) / search.ScoreScale}
	}
	many := make([]search.SourceRef, search.MaxExplainSources+1)
	for i := range many {
		many[i] = src(1)
	}
	for name, groups := range map[string][]search.PartialGroup{
		"descending keys":   {text("b", 1, 1), text("a", 1, 1)},
		"duplicate cluster": {text("a", 1, 1), text("a", 1, 1)},
		"duplicate entity":  {{Entity: 4, Canonical: "A", Score: 1, Support: 1}, {Entity: 4, Canonical: "B", Score: 1, Support: 1}},
		"zero support":      {text("a", 1, 0)},
		"negative score":    {text("a", -1, 1)},
		"sources > support": {text("a", 2, 1, src(1), src(1))},
		"sources > cap":     {text("a", 99, 99, many...)},
		"zero source score": {text("a", 1, 1, src(0))},
		"huge source score": {text("a", 1<<40, 1, src(1<<33))},
	} {
		cases[name] = EncodePartial(&Partial{Groups: groups})
	}
	for name, data := range cases {
		if _, err := DecodePartial(data); !errors.Is(err, ErrBadPartial) {
			t.Errorf("%s: err = %v, want ErrBadPartial", name, err)
		}
	}
}

// FuzzDecodePartial feeds arbitrary bytes to the decoder: it must never
// panic, every error must wrap ErrBadPartial, and anything it accepts
// must re-encode to exactly the bytes it came from.
func FuzzDecodePartial(f *testing.F) {
	f.Add(EncodePartial(samplePartial()))
	f.Add(EncodePartial(&Partial{Generation: 1, Shards: 1}))
	f.Add([]byte("not a partial"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePartial(data)
		if err != nil {
			if !errors.Is(err, ErrBadPartial) {
				t.Fatalf("error does not wrap ErrBadPartial: %v", err)
			}
			return
		}
		if again := EncodePartial(p); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n got  %x\n want %x", again, data)
		}
	})
}
