package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	webtable "repro"
)

// runInputs returns everything a run derives from its seed, serialized:
// the corpus, the ingest batches, and the bodies of the first requests
// of the stream (page-2 cursors come from the indexed corpus; this
// small one ranks every query within one page).
func runInputs(t *testing.T, seed int64) (corpus, batches, requests []byte) {
	t.Helper()
	ctx := context.Background()
	w, err := buildWorld()
	if err != nil {
		t.Fatal(err)
	}
	ds := w.SearchCorpus(40, seed)
	if corpus, err = json.Marshal(tablesOf(ds.Tables)); err != nil {
		t.Fatal(err)
	}
	if batches, err = json.Marshal(tablesOf(freshBatch(w, "ingest", seed, 0))); err != nil {
		t.Fatal(err)
	}
	svc, err := webtable.NewService(w.Public)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.BuildIndex(ctx, tablesOf(ds.Tables)); err != nil {
		t.Fatal(err)
	}
	base, err := baseBodies(w, queries(w, seed))
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPool(ctx, svc, base)
	if err != nil {
		t.Fatal(err)
	}
	st := stream{seed: seed, bases: len(base)}
	var buf bytes.Buffer
	for i := int64(0); i < 2000; i++ {
		buf.Write(p.bodies[st.slot(i)])
		buf.WriteByte('\n')
	}
	return corpus, batches, buf.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	c1, b1, r1 := runInputs(t, 3)
	c2, b2, r2 := runInputs(t, 3)
	if !bytes.Equal(c1, c2) || !bytes.Equal(b1, b2) || !bytes.Equal(r1, r2) {
		t.Fatal("the same seed produced different inputs")
	}
	c3, b3, r3 := runInputs(t, 4)
	if bytes.Equal(c1, c3) || bytes.Equal(b1, b3) || bytes.Equal(r1, r3) {
		t.Fatal("a different seed reproduced an input of seed 3")
	}
	if !bytes.Contains(r1, []byte(`"explain":true`)) {
		t.Fatal("the stream holds no explain requests")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // unsorted on purpose
	}
	if _, err := percentile(xs, 99); !errors.Is(err, errThinTail) {
		t.Fatalf("p99 of 999 samples: err = %v, want errThinTail", err)
	}
	xs = append(xs, 1000)
	got, err := percentile(xs, 99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (ten samples above it)", got)
	}
}

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 50 * time.Millisecond
	// Request i is due at i ms; request 0 stalls the only client, so
	// every request due before the stall ends is sent late and must be
	// charged the wait from its due time.
	lat, late := openLoop(context.Background(), 1, 20, 1000, nil, func(_, i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	for i := 1; i < 20; i++ {
		waited := millis(stall) - float64(i)
		if late[i] < waited || lat[i] < waited {
			t.Errorf("request %d: latency %.1fms, late %.1fms; want both >= %.1fms", i, lat[i], late[i], waited)
		}
	}
}

func TestFailRatioCountsMismatchingBody(t *testing.T) {
	b := &bench{out: &bytes.Buffer{}}
	b.check.searchResponse(200, []byte(`{"answers":[],"total":0}`+"\n"), []byte(`{"answers":[],"total":0}`+"\n"), nil)
	b.check.searchResponse(200, []byte(`{"answers":[],"total":1}`+"\n"), []byte(`{"answers":[],"total":0}`+"\n"), nil)
	line, err := b.result()
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Fatalf("result %s: want correct false, 1 of 2 failed", line)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 50}, // overlaps span 1
		{ID: 3, Parent: 1, Start: 15, End: 20},
	}
	selfTimes(spans)
	if got := []int64{spans[0].Self, spans[1].Self, spans[2].Self, spans[3].Self}; got[0] != 60 || got[1] != 25 || got[2] != 20 || got[3] != 5 {
		t.Fatalf("self times %v, want [60 25 20 5]", got)
	}
}
