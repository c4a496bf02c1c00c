package store

// This file is the LiveStore's MVCC read path. View hands out immutable
// *Store snapshots of the live contents cheaply enough to call per HTTP
// query while ingest keeps running.
//
// A view reads the live store's own columns. Rows are only ever appended
// past every existing view's visible length — never rewritten in place —
// so a view holding column headers clipped to its row count keeps
// reading exactly the bytes it saw, data-race-free, while later appends
// extend the arrays (or move them to larger ones; old views keep the old
// arrays alive). Taking a view copies no rows: it copies the sealed
// layout's metadata, the batch range table and the open segment's zone,
// all under ls.mu.
//
// Views carry the live store's generation: tail-only growth keeps it, a
// seal or a merging compaction draws a fresh one. The query planner keys
// its plan cache on that generation, which is what lets a hot dashboard
// query keep hitting the cache across view refreshes while rows stream
// in (see query.Planner).
type viewState struct {
	// cached is the latest view, returned verbatim while nothing changed.
	cached *Store

	views, refreshes int64
}

// View returns an immutable snapshot of the live contents as a raw-
// resident *Store: sealed segments plus the acknowledged open rows as one
// more segment, each carrying its zone map, stamped with the current
// generation. The snapshot never changes as more rows arrive, is safe
// for concurrent queries, and shares column storage with the live store.
func (ls *LiveStore) View() *Store {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	vs := &ls.view
	vs.views++
	if v := vs.cached; v != nil && v.gen == ls.gen && v.rows == ls.cols.len() {
		return v
	}
	vs.refreshes++
	vs.cached = ls.viewLocked()
	return vs.cached
}

// viewLocked builds a fresh view of the current contents. It costs
// O(segments + batches): the column headers are clipped, not copied, and
// only the small metadata a later append or seal would touch is copied.
func (ls *LiveStore) viewLocked() *Store {
	n := ls.cols.len()
	ranges := append([]rowRange(nil), ls.ranges...)
	nseg := len(ls.segs)
	segs := make([]SegmentInfo, nseg, nseg+1)
	copy(segs, ls.segs)
	zones := make([]ZoneMap, nseg, nseg+1)
	copy(zones, ls.zones)
	if n > ls.sealRows {
		segs = append(segs, SegmentInfo{RowLo: ls.sealRows, RowHi: n, BatchLo: ls.openBatchLo, BatchHi: ls.curBatch + 1})
		zones = append(zones, ls.openZone.frozen())
	}
	return ls.cols.store(n, ranges, segs, zones, ls.gen)
}

// ViewStats reports the view counters, for /stats and tests.
type ViewStats struct {
	// Generation is the latest view's generation (0 before the first
	// view).
	Generation uint64
	// Views counts View calls; Refreshes the subset that found new data
	// and built a new view.
	Views, Refreshes int64
	// CopiedRows is the total rows ever copied to build views. Views read
	// the live store's own columns, so it is always 0; it stays so
	// dashboards and benchmarks can keep reading it.
	CopiedRows int64
	// Rows and Segments describe the latest view.
	Rows, Segments int
}

// ViewStats returns the current view counters.
func (ls *LiveStore) ViewStats() ViewStats {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	vs := &ls.view
	st := ViewStats{Views: vs.views, Refreshes: vs.refreshes}
	if v := vs.cached; v != nil {
		st.Generation, st.Rows, st.Segments = v.gen, v.rows, len(v.segs)
	}
	return st
}
