package store

import (
	"crowdscope/internal/par"
)

// zoneEnumCap bounds the distinct-value sets a zone map keeps for the
// enum-like columns (task type, answer). A segment with more distinct
// values than this stores no set and pruning falls back to the min/max
// range; the cap keeps zone maps a few hundred bytes per segment.
const zoneEnumCap = 32

// MergeZoneMaps folds per-segment (or per-shard) zone maps into one
// summary zone: min/max bounds merge, and the enum sets union when every
// contributing zone kept one and the union stays within the cap.
// Zero-row zones are skipped. This is the selectivity-proxy source the
// query planner scores clauses against — a whole store or manifest
// summarized as a single segment-shaped zone.
func MergeZoneMaps(zs []ZoneMap) ZoneMap { return mergeShardZones(zs) }

// A ZoneMap summarizes one segment's column values for scan pruning: the
// per-column min/max, plus the full sorted distinct-value set for the
// enum-like columns when it is small. A query whose predicate cannot
// intersect a segment's zone skips the segment without touching a row —
// at full scale that turns a one-week scan over the 27M-row log into a
// scan of the two segments that cover the week.
//
// Zone maps are computed when a segment is sealed, carried through
// Assemble, persisted in v3 snapshots, and recomputed lazily for stores
// that predate them (direct-append stores, v1/v2 and early-v3 snapshots).
type ZoneMap struct {
	// Rows is the number of rows the zone summarizes; a zone with zero
	// rows matches nothing.
	Rows int

	TaskTypeMin, TaskTypeMax uint32
	ItemMin, ItemMax         uint32
	WorkerMin, WorkerMax     uint32
	AnswerMin, AnswerMax     uint32
	StartMin, StartMax       int64
	EndMin, EndMax           int64
	TrustMin, TrustMax       float32

	// TaskTypes and Answers are the sorted distinct values of their
	// columns when a segment holds at most zoneEnumCap of them; nil when
	// the set overflowed (range pruning still applies).
	TaskTypes []uint32
	Answers   []uint32
}

// enumSet accumulates a small sorted distinct-value set, degrading to nil
// once it exceeds its cap (zoneEnumCap for zone maps, dictMaxEntries for
// the dictionary encoder).
type enumSet struct {
	cap      int
	vals     []uint32
	overflow bool
}

func (e *enumSet) add(v uint32) {
	if e.overflow {
		return
	}
	// Sorted insert; sets this small are cheaper to keep sorted than to
	// hash and sort later.
	lo, hi := 0, len(e.vals)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.vals[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(e.vals) && e.vals[lo] == v {
		return
	}
	if len(e.vals) == e.cap {
		e.vals, e.overflow = nil, true
		return
	}
	e.vals = append(e.vals, 0)
	copy(e.vals[lo+1:], e.vals[lo:])
	e.vals[lo] = v
}

// zoneAcc accumulates a ZoneMap over rows folded in order. It is the one
// zone routine: computeZoneMap folds a whole row span at once, and the
// live store folds its open segment record by record, so a sealed zone
// is the same whichever way its rows arrived.
type zoneAcc struct {
	z        ZoneMap
	tts, ans enumSet
}

// fold extends the zone with rows [lo, hi) of the given column slices.
func (a *zoneAcc) fold(taskType, item, worker, answer []uint32, start, end []int64, trust []float32, lo, hi int) {
	if hi <= lo {
		return
	}
	z := &a.z
	if z.Rows == 0 {
		z.TaskTypeMin, z.TaskTypeMax = taskType[lo], taskType[lo]
		z.ItemMin, z.ItemMax = item[lo], item[lo]
		z.WorkerMin, z.WorkerMax = worker[lo], worker[lo]
		z.AnswerMin, z.AnswerMax = answer[lo], answer[lo]
		z.StartMin, z.StartMax = start[lo], start[lo]
		z.EndMin, z.EndMax = end[lo], end[lo]
		z.TrustMin, z.TrustMax = trust[lo], trust[lo]
		a.tts, a.ans = enumSet{cap: zoneEnumCap}, enumSet{cap: zoneEnumCap}
	}
	for i := lo; i < hi; i++ {
		z.TaskTypeMin = min(z.TaskTypeMin, taskType[i])
		z.TaskTypeMax = max(z.TaskTypeMax, taskType[i])
		z.ItemMin = min(z.ItemMin, item[i])
		z.ItemMax = max(z.ItemMax, item[i])
		z.WorkerMin = min(z.WorkerMin, worker[i])
		z.WorkerMax = max(z.WorkerMax, worker[i])
		z.AnswerMin = min(z.AnswerMin, answer[i])
		z.AnswerMax = max(z.AnswerMax, answer[i])
		z.StartMin = min(z.StartMin, start[i])
		z.StartMax = max(z.StartMax, start[i])
		z.EndMin = min(z.EndMin, end[i])
		z.EndMax = max(z.EndMax, end[i])
		z.TrustMin = min(z.TrustMin, trust[i])
		z.TrustMax = max(z.TrustMax, trust[i])
		a.tts.add(taskType[i])
		a.ans.add(answer[i])
	}
	z.Rows += hi - lo
	z.TaskTypes, z.Answers = a.tts.vals, a.ans.vals
}

// frozen returns the zone so far with private copies of its enum sets,
// which later folds keep editing in place.
func (a *zoneAcc) frozen() ZoneMap {
	z := a.z
	z.TaskTypes = append([]uint32(nil), z.TaskTypes...)
	z.Answers = append([]uint32(nil), z.Answers...)
	return z
}

// computeZoneMap summarizes rows [lo, hi) of the given column slices.
func computeZoneMap(taskType, item, worker, answer []uint32, start, end []int64, trust []float32, lo, hi int) ZoneMap {
	var a zoneAcc
	a.fold(taskType, item, worker, answer, start, end, trust, lo, hi)
	return a.z
}

// Zone returns the segment's zone map (computed at Seal).
func (g *Segment) Zone() ZoneMap { return g.zone }

// zoneSnapshot reads the current zones slice under the fill mutex, so
// read-only callers (Validate) stay safe alongside a concurrent lazy
// fill.
func (s *Store) zoneSnapshot() []ZoneMap {
	mu := s.fillMutex()
	mu.Lock()
	defer mu.Unlock()
	return s.zones
}

// ZoneMaps returns one zone map per Segments() entry, in segment order.
// Stores whose zones were not sealed in (direct-append stores, pre-zone
// snapshots, repair-mode loads) compute them on first use, in parallel
// over segments. Unlike the store's other lazy indexes, the fill is safe
// under concurrent readers (e.g. parallel query.Run calls on a shared
// store); any other mutation still requires exclusive access.
func (s *Store) ZoneMaps() []ZoneMap {
	segs := s.Segments()
	if len(segs) == 0 {
		return nil
	}
	fs := s.fillRef()
	fs.mu.Lock()
	if len(s.zones) == len(segs) {
		zones := s.zones
		fs.mu.Unlock()
		return zones
	}
	fs.mu.Unlock()
	// Compute outside the shared mutex: ensure takes the per-column
	// guards, which are never acquired while fs.mu is held.
	s.ensure(colMaskAll)
	zones := make([]ZoneMap, len(segs))
	par.EachShard(len(segs), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			zones[i] = computeZoneMap(s.taskType, s.item, s.worker, s.answer, s.start, s.end, s.trust, segs[i].RowLo, segs[i].RowHi)
		}
	})
	fs.mu.Lock()
	if len(s.zones) == len(segs) {
		zones = s.zones // a concurrent fill won; both results are identical
	} else {
		s.zones = zones
	}
	fs.mu.Unlock()
	return zones
}
