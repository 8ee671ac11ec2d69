package snapshot

import "fmt"

// Assignment is one shard's slice of a snapshot manifest: a contiguous
// half-open segment range plus the global table numbering it implies.
// Contiguity is load-bearing — corpus order is segment order, so a
// contiguous segment range owns a contiguous range of global table
// numbers, and a shard's source table numbers become cluster-global by
// adding one offset.
type Assignment struct {
	// Lo and Hi bound the manifest segments the shard owns: [Lo, Hi).
	Lo, Hi int
	// TableOffset is the number of live tables in all preceding
	// segments — the shard's first global table number.
	TableOffset int
	// Tables is the number of live tables the shard owns.
	Tables int
}

// Segments returns the number of segments assigned.
func (a Assignment) Segments() int { return a.Hi - a.Lo }

// LiveCount returns the segment's live (non-tombstoned) table count —
// the unit of global table numbering, since tombstoned tables are
// skipped when a corpus view numbers its tables.
func (sg *Segment) LiveCount() int { return len(sg.Tables) - len(sg.Dead) }

// SegmentList returns the snapshot's corpus as a segment manifest: the
// v2 segment list verbatim, or the flat v1 corpus as a single anonymous
// segment (exactly how loading materializes it). An empty snapshot
// returns nil.
func (s *Snapshot) SegmentList() []Segment {
	if len(s.Segments) > 0 {
		return s.Segments
	}
	if len(s.Tables) == 0 {
		return nil
	}
	return []Segment{{Tables: s.Tables, Anns: s.Anns}}
}

// AssignShards partitions a manifest into shards contiguous segment
// ranges balanced by live-table count. The split is deterministic (a
// pure function of the manifest and the shard count, so every process
// in a cluster derives the same placement): shard s extends while the
// cumulative live-table count is below the quota (s+1)·total/shards,
// and the last shard takes whatever remains. Shards may own zero
// segments when there are more shards than segments — legal, they just
// contribute no evidence. shards must be >= 1.
func AssignShards(segs []Segment, shards int) ([]Assignment, error) {
	if shards < 1 {
		return nil, fmt.Errorf("snapshot: shard count must be >= 1, got %d", shards)
	}
	total := 0
	for i := range segs {
		total += segs[i].LiveCount()
	}
	out := make([]Assignment, shards)
	seg, cum := 0, 0
	for s := 0; s < shards; s++ {
		a := Assignment{Lo: seg, TableOffset: cum}
		quota := ((s + 1) * total) / shards
		for seg < len(segs) && (s == shards-1 || cum < quota) {
			cum += segs[seg].LiveCount()
			seg++
		}
		a.Hi = seg
		a.Tables = cum - a.TableOffset
		out[s] = a
	}
	return out, nil
}
