// Package store holds the task-instance log in columnar form: one typed
// array per attribute, grouped contiguously by batch. At full scale the
// dataset is 27M rows, so the layout matters — analyses scan one or two
// columns at a time (e.g. weekly arrival counts read only Start), and the
// columnar form keeps those scans cache-friendly and cheap to snapshot.
package store

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"crowdscope/internal/model"
	"crowdscope/internal/par"
)

// Store is the columnar instance log. Rows are ordered by batch: all
// instances of a batch are contiguous, recorded in Ranges.
//
// A store carries its rows in up to two forms: the flat raw column
// arrays below, and per-segment lightweight encodings (see colenc.go).
// Stores built by Assemble hold both; live-store views hold only raw
// columns, shared with the live store's own (see LiveStore.View); stores
// loaded from a compressed v3 snapshot arrive encoded-only and
// materialize raw columns lazily, one column at a time, on first
// accessor use. The query engine scans the encoded form directly, so
// count-style queries over a loaded snapshot never pay for
// materialization.
type Store struct {
	batch    []uint32
	taskType []uint32
	item     []uint32
	worker   []uint32
	start    []int64
	end      []int64
	trust    []float32
	answer   []uint32

	// rows is the authoritative row count; with lazy materialization the
	// raw arrays above may be shorter (nil) than the store is long.
	rows int

	// ranges[batchID] is the [lo,hi) row range of a batch; batches with
	// no materialized instances have lo == hi.
	ranges []rowRange

	// segs records the segment layout when the store was produced by
	// Assemble (or restored from a segmented snapshot). Direct mutation
	// through BeginBatch/Append drops it: the store degrades gracefully to
	// the monolithic view.
	segs []SegmentInfo

	// zones holds one zone map per segment when known (sealed in by
	// Assemble, loaded from a v3 snapshot, or computed lazily by
	// ZoneMaps); nil until then.
	zones []ZoneMap

	// encs holds one column encoding per segment when known (sealed in at
	// Builder.Seal and carried through Assemble, or loaded from a
	// compressed v3 snapshot); nil when the store is raw-only.
	encs []SegmentEnc

	workerIndex map[uint32][]int32 // lazy posting lists, built on demand

	// partial marks a store backed by a dataset shard whose encodings are
	// loaded selectively (see dataset.go): only columns recorded in
	// loadedCols hold real data, and materializing any other column is a
	// programming error the fill path turns into a panic.
	partial    bool
	loadedCols colMask // guarded by fill.mu

	// gen is the store's generation: a process-monotonic identity drawn
	// from a global counter at construction, never reused within a
	// process. The query planner keys its plan cache on it — unlike the
	// store's address, a generation can never alias a freed store whose
	// memory was recycled. Live-store views share one generation per
	// sealed layout (see LiveStore.View), which is what lets hot
	// plans survive open-tail refreshes. Zero means "unversioned" (a
	// zero-value store that never passed through a constructor); the
	// planner refuses to cache those.
	gen uint64

	// fill guards the store's lazy fills: raw-column materialization,
	// zone maps, segment encodings. It sits behind a pointer because the
	// Store itself is installed by value in ReadSnapshot (a contained
	// mutex would outlaw that); every constructor allocates one, and
	// copies share it. Zero-value stores (no constructor) fall back to a
	// package-level state — they can carry no encodings, so the fallback
	// only ever guards a lazy zone-map fill.
	fill *fillState
}

// fillState carries the lazy-fill guards: mu for the shared slices
// (zones, encs, loadedCols) and one mutex per raw column, so concurrent
// queries materializing different columns never serialize on each other.
// Lock ordering: a column mutex is never acquired while holding mu.
type fillState struct {
	mu   sync.Mutex
	cols [8]sync.Mutex // indexed by colIndex, i.e. colMask bit order
}

// zeroStoreFill serves stores built without a constructor.
var zeroStoreFill fillState

// fillRef returns the state guarding this store's lazy fills.
func (s *Store) fillRef() *fillState {
	if s.fill != nil {
		return s.fill
	}
	return &zeroStoreFill
}

// fillMutex returns the mutex guarding this store's shared lazy fills.
func (s *Store) fillMutex() *sync.Mutex { return &s.fillRef().mu }

// colIndex maps a single-column mask to its fillState.cols slot.
func colIndex(m colMask) int { return bits.TrailingZeros16(uint16(m)) }

type rowRange struct{ Lo, Hi int32 }

// colMask names the raw columns a caller needs materialized.
type colMask uint16

const (
	colMaskBatch colMask = 1 << iota
	colMaskTaskType
	colMaskItem
	colMaskWorker
	colMaskStart
	colMaskEnd
	colMaskTrust
	colMaskAnswer

	colMaskAll colMask = colMaskBatch | colMaskTaskType | colMaskItem |
		colMaskWorker | colMaskStart | colMaskEnd | colMaskTrust | colMaskAnswer
)

// ColumnSet selects raw columns for selective loading and
// materialization; dataset shards (see dataset.go) read only the
// selected columns' bytes.
type ColumnSet = colMask

// Exported column selectors, one per store column.
const (
	ColSetBatch    ColumnSet = colMaskBatch
	ColSetTaskType ColumnSet = colMaskTaskType
	ColSetItem     ColumnSet = colMaskItem
	ColSetWorker   ColumnSet = colMaskWorker
	ColSetStart    ColumnSet = colMaskStart
	ColSetEnd      ColumnSet = colMaskEnd
	ColSetTrust    ColumnSet = colMaskTrust
	ColSetAnswer   ColumnSet = colMaskAnswer
	ColSetAll      ColumnSet = colMaskAll
)

// ensure materializes the requested raw columns from the segment
// encodings if they are not yet resident. It is safe under concurrent
// readers — each column fills under its own guard, so queries
// materializing different columns proceed in parallel — and a no-op for
// raw-backed stores.
func (s *Store) ensure(mask colMask) {
	if s.rows == 0 {
		return
	}
	if mask&colMaskEnd != 0 {
		// End reconstructs as Start + EndOff.
		mask |= colMaskStart
	}
	fs := s.fillRef()
	fs.mu.Lock()
	encs := s.encs
	var notLoaded colMask
	if s.partial {
		notLoaded = mask &^ s.loadedCols
	}
	fs.mu.Unlock()
	if notLoaded != 0 {
		panic(fmt.Sprintf("store: columns %#x not loaded in partial dataset shard; call Shard.EnsureColumns first", uint16(notLoaded)))
	}
	if len(encs) == 0 {
		return
	}
	// Fixed fill order with Start strictly before End: the End fill reads
	// the materialized Start column.
	for _, m := range [...]colMask{colMaskBatch, colMaskTaskType, colMaskItem,
		colMaskWorker, colMaskStart, colMaskTrust, colMaskAnswer, colMaskEnd} {
		if mask&m != 0 {
			s.ensureCol(fs, m, encs)
		}
	}
}

// ensureCol fills one raw column under its per-column guard.
func (s *Store) ensureCol(fs *fillState, m colMask, encs []SegmentEnc) {
	fs.cols[colIndex(m)].Lock()
	defer fs.cols[colIndex(m)].Unlock()
	n := s.rows
	if s.colLen(m) == n {
		return
	}
	switch m {
	case colMaskBatch:
		s.batch = s.decodeU32(encs, func(e *SegmentEnc) *EncodedU32 { return &e.Batch })
	case colMaskTaskType:
		s.taskType = s.decodeU32(encs, func(e *SegmentEnc) *EncodedU32 { return &e.TaskType })
	case colMaskItem:
		s.item = s.decodeU32(encs, func(e *SegmentEnc) *EncodedU32 { return &e.Item })
	case colMaskWorker:
		s.worker = s.decodeU32(encs, func(e *SegmentEnc) *EncodedU32 { return &e.Worker })
	case colMaskAnswer:
		s.answer = s.decodeU32(encs, func(e *SegmentEnc) *EncodedU32 { return &e.Answer })
	case colMaskStart:
		dst := make([]int64, n)
		par.EachShard(len(s.segs), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				si := s.segs[i]
				if si.Rows() > 0 {
					encs[i].Start.DecodeInto(dst[si.RowLo:si.RowHi])
				}
			}
		})
		s.start = dst
	case colMaskTrust:
		dst := make([]float32, n)
		par.EachShard(len(s.segs), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				si := s.segs[i]
				if si.Rows() > 0 {
					encs[i].Trust.DecodeInto(dst[si.RowLo:si.RowHi])
				}
			}
		})
		s.trust = dst
	case colMaskEnd:
		dst := make([]int64, n)
		// Safe unsynchronized read: this goroutine held the Start guard in
		// ensure's fixed fill order before reaching End, and a filled
		// column is never written again.
		starts := s.start
		par.EachShard(len(s.segs), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				si := s.segs[i]
				if si.Rows() == 0 {
					continue
				}
				encs[i].EndOff.DecodeInto(dst[si.RowLo:si.RowHi])
				for r := si.RowLo; r < si.RowHi; r++ {
					dst[r] += starts[r]
				}
			}
		})
		s.end = dst
	}
}

// colLen returns the current length of one raw column array.
func (s *Store) colLen(m colMask) int {
	switch m {
	case colMaskBatch:
		return len(s.batch)
	case colMaskTaskType:
		return len(s.taskType)
	case colMaskItem:
		return len(s.item)
	case colMaskWorker:
		return len(s.worker)
	case colMaskStart:
		return len(s.start)
	case colMaskEnd:
		return len(s.end)
	case colMaskTrust:
		return len(s.trust)
	case colMaskAnswer:
		return len(s.answer)
	}
	return 0
}

// decodeU32 materializes one uint32 column across all segments.
func (s *Store) decodeU32(encs []SegmentEnc, pick func(*SegmentEnc) *EncodedU32) []uint32 {
	dst := make([]uint32, s.rows)
	par.EachShard(len(s.segs), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			si := s.segs[i]
			if si.Rows() > 0 {
				pick(&encs[i]).DecodeInto(dst[si.RowLo:si.RowHi])
			}
		}
	})
	return dst
}

// SegmentEncodings returns the per-segment column encodings, or nil when
// the store carries none (direct-append stores, pre-compression
// snapshots). It never computes encodings; use Encodings for that.
func (s *Store) SegmentEncodings() []SegmentEnc {
	mu := s.fillMutex()
	mu.Lock()
	defer mu.Unlock()
	return s.encs
}

// Encodings returns one SegmentEnc per explicit segment, encoding the raw
// columns on first use for stores that predate encodings (old snapshots).
// It returns nil for stores without an explicit segment layout.
func (s *Store) Encodings() []SegmentEnc {
	fs := s.fillRef()
	fs.mu.Lock()
	if len(s.segs) == 0 {
		fs.mu.Unlock()
		return nil
	}
	if len(s.encs) == len(s.segs) {
		encs := s.encs
		fs.mu.Unlock()
		return encs
	}
	fs.mu.Unlock()
	// Encode outside the shared mutex: ensure takes the per-column
	// guards, which are never acquired while fs.mu is held.
	s.ensure(colMaskAll)
	encs := make([]SegmentEnc, len(s.segs))
	par.EachShard(len(s.segs), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			si := s.segs[i]
			encs[i] = encodeSegmentColumns(
				s.batch[si.RowLo:si.RowHi], s.taskType[si.RowLo:si.RowHi],
				s.item[si.RowLo:si.RowHi], s.worker[si.RowLo:si.RowHi],
				s.answer[si.RowLo:si.RowHi],
				s.start[si.RowLo:si.RowHi], s.end[si.RowLo:si.RowHi],
				s.trust[si.RowLo:si.RowHi])
		}
	})
	fs.mu.Lock()
	if len(s.encs) == len(s.segs) {
		encs = s.encs // a concurrent fill won; both results are identical
	} else {
		s.encs = encs
	}
	fs.mu.Unlock()
	return encs
}

// Residency reports which raw columns are currently materialized, without
// triggering materialization. The query planner uses it to choose between
// raw and encoded scan kernels; a stale answer only costs performance,
// never correctness.
type Residency struct {
	Batch, TaskType, Item, Worker, Start, End, Trust, Answer bool
}

// Residency returns the store's current raw-column residency. Each
// column's length is read under that column's fill guard, so the answer
// is consistent per column alongside concurrent materialization.
func (s *Store) Residency() Residency {
	if s.rows == 0 {
		return Residency{true, true, true, true, true, true, true, true}
	}
	fs := s.fillRef()
	n := s.rows
	var r Residency
	read := func(m colMask, dst *bool) {
		fs.cols[colIndex(m)].Lock()
		*dst = s.colLen(m) == n
		fs.cols[colIndex(m)].Unlock()
	}
	read(colMaskBatch, &r.Batch)
	read(colMaskTaskType, &r.TaskType)
	read(colMaskItem, &r.Item)
	read(colMaskWorker, &r.Worker)
	read(colMaskStart, &r.Start)
	read(colMaskEnd, &r.End)
	read(colMaskTrust, &r.Trust)
	read(colMaskAnswer, &r.Answer)
	return r
}

// storeGen is the process-wide generation counter; 0 is reserved for
// unversioned zero-value stores.
var storeGen atomic.Uint64

// NextGeneration draws a fresh, never-reused store generation. It is
// exported for callers that version store-shaped snapshots of their own
// (LiveStore draws one per sealed layout: on open, on each seal and on
// each merging compaction).
func NextGeneration() uint64 { return storeGen.Add(1) }

// Generation returns the store's construction generation: non-zero and
// process-unique for stores built by a constructor (New, Assemble, a
// snapshot load), zero for zero-value stores. Two different generations
// mean two different stores; live-store views deliberately share one
// generation while only their open tail differs.
func (s *Store) Generation() uint64 { return s.gen }

// New returns an empty store sized for the given number of batches.
func New(numBatches int) *Store {
	return &Store{ranges: make([]rowRange, numBatches), fill: &fillState{}, gen: NextGeneration()}
}

// Len returns the number of instance rows.
func (s *Store) Len() int { return s.rows }

// NumBatches returns the size of the batch range table.
func (s *Store) NumBatches() int { return len(s.ranges) }

// degradeToRaw prepares an encoded store for direct mutation: every raw
// column is materialized and the encodings dropped, so appends cannot
// silently orphan encoded rows. Mutators require exclusive access (like
// every other Store mutation), which makes the unlocked check safe and
// keeps the hot append path lock-free for raw-backed stores.
func (s *Store) degradeToRaw() {
	if len(s.encs) > 0 {
		s.ensure(colMaskAll)
		s.encs = nil
	}
}

// BeginBatch marks the start of batchID's rows; all Append calls until the
// next BeginBatch belong to it. Batches must be appended in ascending
// row order (any batch ID order is fine). Direct mutation degrades an
// encoded store to the raw monolithic view: columns are materialized and
// the segment layout, zones and encodings are dropped.
func (s *Store) BeginBatch(batchID uint32) {
	s.degradeToRaw()
	if int(batchID) >= len(s.ranges) {
		// Grow the range table; batch IDs are dense in practice.
		grown := make([]rowRange, batchID+1)
		copy(grown, s.ranges)
		s.ranges = grown
	}
	n := int32(len(s.start))
	s.ranges[batchID] = rowRange{Lo: n, Hi: n}
	s.segs = nil
	s.zones = nil
	s.encs = nil
}

// Append adds one instance row to the currently open batch.
func (s *Store) Append(in model.Instance) {
	s.degradeToRaw()
	s.batch = append(s.batch, in.Batch)
	s.taskType = append(s.taskType, in.TaskType)
	s.item = append(s.item, in.Item)
	s.worker = append(s.worker, in.Worker)
	s.start = append(s.start, in.Start)
	s.end = append(s.end, in.End)
	s.trust = append(s.trust, in.Trust)
	s.answer = append(s.answer, in.Answer)
	s.rows = len(s.start)
	s.ranges[in.Batch].Hi = int32(len(s.start))
	s.workerIndex = nil
	s.segs = nil
	s.zones = nil
	s.encs = nil
}

// Row materializes row i as an Instance.
func (s *Store) Row(i int) model.Instance {
	s.ensure(colMaskAll)
	return model.Instance{
		Batch:    s.batch[i],
		TaskType: s.taskType[i],
		Item:     s.item[i],
		Worker:   s.worker[i],
		Start:    s.start[i],
		End:      s.end[i],
		Trust:    s.trust[i],
		Answer:   s.answer[i],
	}
}

// Column accessors return the backing arrays; callers must not modify
// them. They exist because scans over one column are the hot path of every
// experiment. On an encoded-only store (loaded from a compressed
// snapshot) the first access to a column materializes it — that column
// alone — from the segment encodings.

// Batches returns the batch-ID column.
func (s *Store) Batches() []uint32 { s.ensure(colMaskBatch); return s.batch }

// TaskTypes returns the task-type column.
func (s *Store) TaskTypes() []uint32 { s.ensure(colMaskTaskType); return s.taskType }

// Items returns the item-ID column.
func (s *Store) Items() []uint32 { s.ensure(colMaskItem); return s.item }

// Workers returns the worker-ID column.
func (s *Store) Workers() []uint32 { s.ensure(colMaskWorker); return s.worker }

// Starts returns the start-time column (unix seconds).
func (s *Store) Starts() []int64 { s.ensure(colMaskStart); return s.start }

// Ends returns the end-time column (unix seconds).
func (s *Store) Ends() []int64 { s.ensure(colMaskEnd); return s.end }

// Trusts returns the trust-score column.
func (s *Store) Trusts() []float32 { s.ensure(colMaskTrust); return s.trust }

// Answers returns the answer-token column.
func (s *Store) Answers() []uint32 { s.ensure(colMaskAnswer); return s.answer }

// BatchRange returns the [lo,hi) row range of a batch.
func (s *Store) BatchRange(batchID uint32) (lo, hi int) {
	if int(batchID) >= len(s.ranges) {
		return 0, 0
	}
	rr := s.ranges[batchID]
	return int(rr.Lo), int(rr.Hi)
}

// BatchRows calls fn for each row of a batch.
func (s *Store) BatchRows(batchID uint32, fn func(row int)) {
	lo, hi := s.BatchRange(batchID)
	for i := lo; i < hi; i++ {
		fn(i)
	}
}

// WorkerRows returns the rows of one worker, building the posting-list
// index on first use.
func (s *Store) WorkerRows(workerID uint32) []int32 {
	if s.workerIndex == nil {
		s.buildWorkerIndex()
	}
	return s.workerIndex[workerID]
}

// DistinctWorkers returns the number of workers with at least one row.
func (s *Store) DistinctWorkers() int {
	if s.workerIndex == nil {
		s.buildWorkerIndex()
	}
	return len(s.workerIndex)
}

// EachWorker iterates (workerID, rows) pairs in ascending worker order.
func (s *Store) EachWorker(fn func(workerID uint32, rows []int32)) {
	if s.workerIndex == nil {
		s.buildWorkerIndex()
	}
	ids := make([]uint32, 0, len(s.workerIndex))
	for id := range s.workerIndex {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		fn(id, s.workerIndex[id])
	}
}

// workerIndexParallelMin is the row count above which the posting-list
// build fans out across segments; below it a single pass is faster than
// spawning goroutines and merging maps.
const workerIndexParallelMin = 1 << 16

func (s *Store) buildWorkerIndex() {
	s.ensure(colMaskWorker)
	if s.Len() < workerIndexParallelMin {
		idx := make(map[uint32][]int32)
		for i, w := range s.worker {
			idx[w] = append(idx[w], int32(i))
		}
		s.workerIndex = idx
		return
	}
	// Segment-aware build: each chunk (aligned to segment boundaries where
	// possible) builds its own postings; chunk-order merging preserves the
	// ascending row order the analyses rely on.
	parts := ParallelScan(s, 0, func(lo, hi int) map[uint32][]int32 {
		m := make(map[uint32][]int32)
		for i := lo; i < hi; i++ {
			m[s.worker[i]] = append(m[s.worker[i]], int32(i))
		}
		return m
	})
	idx := make(map[uint32][]int32)
	for _, part := range parts {
		for w, rows := range part {
			idx[w] = append(idx[w], rows...)
		}
	}
	s.workerIndex = idx
}

// Validate checks the structural invariants: ranges partition the rows
// they cover, per-row batch IDs match their range, and end >= start. It
// inspects every column, so an encoded-only store materializes first.
func (s *Store) Validate() error {
	s.ensure(colMaskAll)
	n := s.rows
	for _, col := range []int{len(s.batch), len(s.taskType), len(s.item), len(s.worker), len(s.start), len(s.end), len(s.trust), len(s.answer)} {
		if col != n {
			return errors.New("store: column length mismatch")
		}
	}
	for b, rr := range s.ranges {
		if rr.Lo > rr.Hi || int(rr.Hi) > n {
			return fmt.Errorf("store: bad range for batch %d: [%d,%d)", b, rr.Lo, rr.Hi)
		}
		for i := rr.Lo; i < rr.Hi; i++ {
			if s.batch[i] != uint32(b) {
				return fmt.Errorf("store: row %d in range of batch %d has batch %d", i, b, s.batch[i])
			}
		}
	}
	for i := 0; i < n; i++ {
		if s.end[i] < s.start[i] {
			return fmt.Errorf("store: row %d ends before it starts", i)
		}
	}
	// Segment layout invariants: row spans partition [0,n) contiguously,
	// batch intervals ascend without overlap, and every batch range lies
	// inside the row span of the segment covering its batch ID.
	if len(s.segs) > 0 {
		rowOff, batchOff := 0, uint32(0)
		for i, si := range s.segs {
			if si.RowLo != rowOff || si.RowHi < si.RowLo {
				return fmt.Errorf("store: segment %d rows [%d,%d) not contiguous at offset %d", i, si.RowLo, si.RowHi, rowOff)
			}
			if si.BatchLo < batchOff || si.BatchHi < si.BatchLo || int(si.BatchHi) > len(s.ranges) {
				return fmt.Errorf("store: segment %d batch interval [%d,%d) invalid", i, si.BatchLo, si.BatchHi)
			}
			for b := si.BatchLo; b < si.BatchHi; b++ {
				rr := s.ranges[b]
				if rr.Lo == rr.Hi {
					continue
				}
				if int(rr.Lo) < si.RowLo || int(rr.Hi) > si.RowHi {
					return fmt.Errorf("store: batch %d range [%d,%d) escapes segment %d rows [%d,%d)", b, rr.Lo, rr.Hi, i, si.RowLo, si.RowHi)
				}
			}
			rowOff, batchOff = si.RowHi, si.BatchHi
		}
		if rowOff != n {
			return fmt.Errorf("store: segments cover %d of %d rows", rowOff, n)
		}
	}
	// Zone maps, when present, must pair one-to-one with the segment
	// layout they summarize. Read under the fill mutex: Validate may run
	// alongside queries whose first ZoneMaps call fills the cache.
	if zones := s.zoneSnapshot(); len(zones) > 0 {
		segs := s.Segments()
		if len(zones) != len(segs) {
			return fmt.Errorf("store: %d zone maps for %d segments", len(zones), len(segs))
		}
		for i, z := range zones {
			if z.Rows != segs[i].Rows() {
				return fmt.Errorf("store: zone map %d covers %d rows, segment has %d", i, z.Rows, segs[i].Rows())
			}
		}
	}
	// Segment encodings, when present, must pair one-to-one with the
	// segment layout and satisfy their own structural invariants.
	if encs := s.SegmentEncodings(); len(encs) > 0 {
		segs := s.Segments()
		if len(encs) != len(segs) {
			return fmt.Errorf("store: %d segment encodings for %d segments", len(encs), len(segs))
		}
		for i := range encs {
			if err := encs[i].validate(segs[i].Rows()); err != nil {
				return fmt.Errorf("store: segment %d encoding: %v", i, err)
			}
		}
	}
	return nil
}
