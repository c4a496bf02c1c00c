package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/wal"
)

// rowsOf materializes every row of a store for equality checks.
func rowsOf(t testing.TB, st *Store) []model.Instance {
	t.Helper()
	out := make([]model.Instance, st.Len())
	for i := range out {
		out[i] = st.Row(i)
	}
	return out
}

func sameRows(a, b []model.Instance) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLiveViewMatchesStore interleaves appends, seals and checkpoints
// with View calls and checks every view against the reference Store
// assembly: same rows, same order, structurally valid, and frozen — a
// view taken earlier never changes as more rows arrive.
func TestLiveViewMatchesStore(t *testing.T) {
	ls, err := OpenLive(t.TempDir(), liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	if v := ls.View(); v.Len() != 0 {
		t.Fatalf("empty store view has %d rows", v.Len())
	}

	recs := genStream(7, 120)
	type taken struct {
		view *Store
		rows []model.Instance
	}
	var snaps []taken
	for i, rec := range recs {
		if err := ls.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			v := ls.View()
			if err := v.Validate(); err != nil {
				t.Fatalf("after record %d: view invalid: %v", i, err)
			}
			ref, err := ls.Store()
			if err != nil {
				t.Fatal(err)
			}
			want := rowsOf(t, ref)
			got := rowsOf(t, v)
			if !sameRows(got, want) {
				t.Fatalf("after record %d: view rows diverge from Store() (%d vs %d rows)", i, len(got), len(want))
			}
			// Pruning reads the zones, so they must match too — the open
			// segment's included, whose first row rarely holds its trust
			// bounds.
			if vz, rz := v.ZoneMaps(), ref.ZoneMaps(); !reflect.DeepEqual(vz, rz) {
				t.Fatalf("after record %d: view zone maps diverge from Store():\n%+v\n%+v", i, vz, rz)
			}
			snaps = append(snaps, taken{view: v, rows: want})
		}
	}
	// Every earlier view must still read exactly what it read when taken.
	for k, s := range snaps {
		if got := rowsOf(t, s.view); !sameRows(got, s.rows) {
			t.Fatalf("snapshot %d changed after later appends", k)
		}
		if err := s.view.Validate(); err != nil {
			t.Fatalf("snapshot %d invalid after later appends: %v", k, err)
		}
	}
}

// TestLiveViewIncrementalCost pins what a view costs: nothing per row.
// Views read the live store's own columns, so no append, seal or
// compaction ever copies a row into them (CopiedRows stays 0); the
// generation holds while only the open segment grows and advances on a
// seal or a merging compaction; and an unchanged store hands back the
// same view. The assertions are deterministic where a latency
// measurement would flake.
func TestLiveViewIncrementalCost(t *testing.T) {
	cfg := LiveConfig{SealRows: 200, CheckpointRows: -1, Sync: wal.SyncNone}
	ls, err := OpenLive(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	row := func(batch uint32, i int) model.Instance {
		return model.Instance{Batch: batch, TaskType: uint32(i % 5), Item: uint32(i), Worker: uint32(i % 50),
			Start: 1_700_000_000 + int64(i), End: 1_700_000_000 + int64(i) + 60, Trust: 0.5, Answer: uint32(i % 3)}
	}
	batch := uint32(0)
	appendBatch := func(n int) {
		rows := make([]model.Instance, n)
		for i := range rows {
			rows[i] = row(batch, i)
		}
		if err := ls.Append(rows); err != nil {
			t.Fatal(err)
		}
		batch++
	}
	noCopies := func(when string) {
		t.Helper()
		if c := ls.ViewStats().CopiedRows; c != 0 {
			t.Fatalf("%s: views copied %d rows", when, c)
		}
	}
	// sharesColumns reports whether view v reads the live store's own
	// column arrays (valid while no append has run since v was taken).
	sharesColumns := func(v *Store) bool {
		ls.mu.Lock()
		defer ls.mu.Unlock()
		return &v.start[0] == &ls.cols.start[0] && &v.trust[0] == &ls.cols.trust[0]
	}

	// A large sealed prefix: every batch exceeds SealRows, so each one
	// seals the previous.
	for b := 0; b < 40; b++ {
		appendBatch(250)
	}
	v0 := ls.View()
	noCopies("first view")
	if v0.Len() != ls.Rows() || !sharesColumns(v0) {
		t.Fatal("first view does not read the live columns")
	}

	// Tail-only growth keeps the generation. The appends extend the open
	// batch (a higher batch ID would seal it).
	for k := 0; k < 20; k++ {
		if err := ls.Append([]model.Instance{row(batch-1, k)}); err != nil {
			t.Fatal(err)
		}
		v := ls.View()
		if v.Generation() != v0.Generation() {
			t.Fatalf("view %d: generation changed %d -> %d during tail-only growth", k, v0.Generation(), v.Generation())
		}
		if v.Len() != ls.Rows() || !sharesColumns(v) {
			t.Fatalf("view %d does not read the live columns", k)
		}
	}
	noCopies("tail growth")

	// Repeated views with no new data are free and identical.
	va, vb := ls.View(), ls.View()
	if va != vb {
		t.Fatal("unchanged store returned distinct view objects")
	}

	// A seal advances the generation.
	appendBatch(250) // fills the open segment past SealRows
	appendBatch(1)   // next batch triggers the seal
	v2 := ls.View()
	if v2.Generation() == v0.Generation() {
		t.Fatal("generation did not advance across a seal")
	}
	noCopies("seal")

	// A compaction that merges advances it; one that merges nothing
	// leaves the store, and so the view, unchanged.
	if n := ls.Compact(1); n != 0 {
		t.Fatalf("Compact(1) merged %d segments", n)
	}
	if ls.View() != v2 {
		t.Fatal("a compaction that merged nothing changed the view")
	}
	if n := ls.Compact(1 << 20); n == 0 {
		t.Fatal("Compact merged nothing")
	}
	v3 := ls.View()
	if v3.Generation() == v2.Generation() {
		t.Fatal("generation did not advance across a merging compaction")
	}
	if !sharesColumns(v3) || !sameRows(rowsOf(t, v3), rowsOf(t, v2)) {
		t.Fatal("post-compaction view does not read the same live rows")
	}
	noCopies("compaction")
}

// TestLiveViewConcurrent hammers View from readers while a writer
// appends, under -race: every view must be a frozen, valid prefix of
// the append stream.
func TestLiveViewConcurrent(t *testing.T) {
	ls, err := OpenLive(t.TempDir(), liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	recs := genStream(11, 300)
	all := streamRows(recs)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, rec := range recs {
			if err := ls.Append(rec); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				v := ls.View()
				n := v.Len()
				if n > len(all) {
					t.Errorf("view has %d rows, stream only %d", n, len(all))
					return
				}
				// Spot-check the snapshot against the stream prefix; record
				// atomicity means every visible prefix is a record boundary,
				// and row order is append order.
				for _, i := range []int{0, n / 2, n - 1} {
					if i < 0 || i >= n {
						continue
					}
					if got := v.Row(i); got != all[i] {
						t.Errorf("view row %d = %+v, want %+v", i, got, all[i])
						return
					}
				}
			}
		}()
	}
	<-done
	wg.Wait()
	if t.Failed() {
		return
	}
	v := ls.View()
	if got := rowsOf(t, v); !sameRows(got, all) {
		t.Fatalf("final view has %d rows, want %d", len(got), len(all))
	}
}

// sealCuts replays the live seal rule over a record stream: the row
// spans and batch intervals of the segments a LiveStore sealing at
// sealRows holds after ingesting it (the open segment excluded).
func sealCuts(recs [][]model.Instance, sealRows int) []SegmentInfo {
	var cuts []SegmentInfo
	var open SegmentInfo
	rows, openRows, cur := 0, 0, uint32(0)
	for _, rec := range recs {
		if openRows >= sealRows && rec[0].Batch > cur {
			open.RowHi, open.BatchHi = rows, cur+1
			cuts = append(cuts, open)
			openRows = 0
		}
		if openRows == 0 {
			open = SegmentInfo{RowLo: rows, BatchLo: rec[0].Batch}
		}
		rows += len(rec)
		openRows += len(rec)
		cur = rec[len(rec)-1].Batch
	}
	return cuts
}

// offlineSegments seals rows into one Builder segment per cut: the
// offline reference the live paths must match.
func offlineSegments(all []model.Instance, cuts []SegmentInfo) []*Segment {
	segs := make([]*Segment, len(cuts))
	for i, c := range cuts {
		b := NewBuilder(c.BatchLo, c.BatchHi)
		for r := c.RowLo; r < c.RowHi; r++ {
			if r == c.RowLo || all[r].Batch != all[r-1].Batch {
				b.BeginBatch(all[r].Batch)
			}
			b.Append(all[r])
		}
		segs[i] = b.Seal()
	}
	return segs
}

// offlineCheckpoint is the snapshot a checkpoint over these sealed
// segments must write, byte for byte.
func offlineCheckpoint(t *testing.T, segs []*Segment) []byte {
	t.Helper()
	numBatches := 0
	if n := len(segs); n > 0 {
		_, hi := segs[n-1].BatchInterval()
		numBatches = int(hi)
	}
	st, err := Assemble(numBatches, segs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := st.WriteSnapshot(&buf, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkpointBytes checkpoints ls and returns the snapshot file it wrote.
func checkpointBytes(t *testing.T, ls *LiveStore, dir string) []byte {
	t.Helper()
	if err := ls.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, ckptName(ls.ckptSeq)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCompactMergesSegments checks the live write paths against the
// offline Builder/Assemble reference over random streams and seal
// thresholds — checkpoints byte-identical before and after compaction,
// every compacted zone and encoding equal to a fresh Builder.Seal — plus
// row equivalence, frozen outstanding views, a fresh view generation,
// and checkpoint round-tripping of the merged layout.
func TestCompactMergesSegments(t *testing.T) {
	for _, tc := range []struct {
		seed              int64
		sealRows, maxRows int
	}{
		{23, 50, 100000},
		{24, 1, 60},
		{25, 13, 100},
		{26, 200, 700},
	} {
		t.Run(fmt.Sprintf("seal=%d,max=%d", tc.sealRows, tc.maxRows), func(t *testing.T) {
			dir := t.TempDir()
			cfg := LiveConfig{SealRows: tc.sealRows, CheckpointRows: -1, Sync: wal.SyncNone}
			ls, err := OpenLive(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recs := genStream(tc.seed, 200)
			all := streamRows(recs)
			for _, rec := range recs {
				if err := ls.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(checkpointBytes(t, ls, dir), offlineCheckpoint(t, offlineSegments(all, sealCuts(recs, tc.sealRows)))) {
				t.Fatal("live checkpoint differs from the offline Assemble snapshot")
			}
			before, err := ls.Store()
			if err != nil {
				t.Fatal(err)
			}
			wantRows := rowsOf(t, before)
			segsBefore := ls.SealedSegments()
			if segsBefore < 4 {
				t.Fatalf("test needs several sealed segments, got %d", segsBefore)
			}
			vPre := ls.View()

			merged := ls.Compact(tc.maxRows)
			if merged == 0 {
				t.Fatal("Compact merged nothing")
			}
			if got := ls.SealedSegments(); got != segsBefore-merged {
				t.Fatalf("%d segments after compacting %d away from %d", got, merged, segsBefore)
			}

			// Every segment, merged or not, carries exactly the zone and
			// encoding a fresh Builder.Seal computes over its rows.
			ls.mu.Lock()
			cuts := append([]SegmentInfo(nil), ls.segs...)
			zones, encs := ls.zones, ls.encs
			ls.mu.Unlock()
			ref := offlineSegments(all, cuts)
			for i, g := range ref {
				if !reflect.DeepEqual(zones[i], g.Zone()) {
					t.Fatalf("segment %d zone %+v, Builder.Seal gives %+v", i, zones[i], g.Zone())
				}
				if !reflect.DeepEqual(encs[i], *g.Enc()) {
					t.Fatalf("segment %d encoding differs from Builder.Seal", i)
				}
			}

			after, err := ls.Store()
			if err != nil {
				t.Fatal(err)
			}
			if err := after.Validate(); err != nil {
				t.Fatalf("compacted store invalid: %v", err)
			}
			if got := rowsOf(t, after); !sameRows(got, wantRows) {
				t.Fatal("compaction changed row content or order")
			}

			// Views: the pre-compaction view is untouched; the next view
			// reads the merged layout under a fresh generation.
			if got := rowsOf(t, vPre); !sameRows(got, wantRows) {
				t.Fatal("outstanding view changed under compaction")
			}
			vPost := ls.View()
			if err := vPost.Validate(); err != nil {
				t.Fatalf("post-compaction view invalid: %v", err)
			}
			if got := rowsOf(t, vPost); !sameRows(got, wantRows) {
				t.Fatal("post-compaction view rows diverge")
			}
			if vPost.Generation() == vPre.Generation() {
				t.Fatal("compaction did not advance the view generation")
			}
			if vPost.NumSegments() >= vPre.NumSegments() {
				t.Fatalf("post-compaction view has %d segments, pre had %d", vPost.NumSegments(), vPre.NumSegments())
			}

			// The merged layout checkpoints exactly as the offline path
			// writes it, and recovers cleanly.
			if !bytes.Equal(checkpointBytes(t, ls, dir), offlineCheckpoint(t, ref)) {
				t.Fatal("compacted checkpoint differs from the offline Assemble snapshot")
			}
			if err := ls.Close(); err != nil {
				t.Fatal(err)
			}
			ls2, err := OpenLive(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ls2.Close()
			rec, err := ls2.Store()
			if err != nil {
				t.Fatal(err)
			}
			if got := rowsOf(t, rec); !sameRows(got, wantRows) {
				t.Fatal("recovered store after compaction+checkpoint diverges")
			}
		})
	}
}

// TestCompactIdempotentAndBounded: a second Compact with the same bound
// finds nothing; an unmergeable bound is a no-op.
func TestCompactIdempotentAndBounded(t *testing.T) {
	ls, err := OpenLive(t.TempDir(), LiveConfig{SealRows: 50, CheckpointRows: -1, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	for _, rec := range genStream(31, 150) {
		if err := ls.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if n := ls.Compact(1); n != 0 {
		t.Fatalf("Compact(1) merged %d segments", n)
	}
	if n := ls.Compact(0); n != 0 {
		t.Fatalf("Compact(0) merged %d segments", n)
	}
	first := ls.Compact(100000)
	if first == 0 {
		t.Fatal("first Compact merged nothing")
	}
	if again := ls.Compact(100000); again != 0 {
		t.Fatalf("second Compact merged %d more segments", again)
	}
}

// BenchmarkLiveView times the serving refresh path: append one 64-row
// batch, then take a view. The preload ends just past a seal, so the
// first 255 timed iterations seal nothing, and closing the store runs
// off the clock: the per-op figure does not depend on b.N.
func BenchmarkLiveView(b *testing.B) {
	const sealRows, batchRows = 1 << 14, 64
	ls, err := OpenLive(b.TempDir(), LiveConfig{SealRows: sealRows, CheckpointRows: -1, Sync: wal.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer ls.Close()
	rows := make([]model.Instance, batchRows)
	batch := uint32(0)
	fill := func() {
		for i := range rows {
			rows[i] = model.Instance{Batch: batch, TaskType: uint32(i % 5), Item: uint32(i), Worker: uint32(i % 50),
				Start: 1_700_000_000 + int64(i), End: 1_700_000_000 + int64(i) + 60, Trust: 0.5, Answer: uint32(i % 3)}
		}
		batch++
	}
	for k := 0; k < 4*sealRows/batchRows+1; k++ {
		fill()
		if err := ls.Append(rows); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
		if err := ls.Append(rows); err != nil {
			b.Fatal(err)
		}
		if v := ls.View(); v.Len() == 0 {
			b.Fatal("empty view")
		}
	}
	b.StopTimer()
}
