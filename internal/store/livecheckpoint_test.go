package store

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"crowdscope/internal/model"
	"crowdscope/internal/vfs"
	"crowdscope/internal/wal"
)

// hookFS is the real filesystem plus test hooks on checkpoint files: it
// counts snapshot temp files, can park a snapshot's fsync until the test
// releases it, and can inject the faults in ckptFaults.
type hookFS struct {
	vfs.OS
	mu          sync.Mutex
	snapCreates int           // Creates of ckpt-*.tmp
	parked      chan struct{} // closed by the next parked snapshot Sync
	release     chan struct{} // non-nil: the next snapshot Sync waits for it
	faults      ckptFaults
	lastRename  string // base name of the latest Rename target
}

// ckptFaults are the errors hookFS injects; nil injects nothing.
type ckptFaults struct {
	remove     error // Remove of a ckpt-*.crow snapshot
	metaCreate error // Create of CHECKPOINT.tmp
	metaSync   error // SyncDir right after CHECKPOINT's rename
}

func isSnapshotTmp(name string) bool {
	base := filepath.Base(name)
	return strings.HasPrefix(base, "ckpt-") && strings.HasSuffix(base, ".tmp")
}

// parkNext arms the next snapshot fsync to park: parked closes once it
// waits, and it returns when release closes.
func (h *hookFS) parkNext() (parked, release chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.parked, h.release = make(chan struct{}), make(chan struct{})
	return h.parked, h.release
}

func (h *hookFS) set(f ckptFaults) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.faults = f
}

func (h *hookFS) creates() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.snapCreates
}

func (h *hookFS) Create(name string) (vfs.File, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.faults.metaCreate != nil && filepath.Base(name) == "CHECKPOINT.tmp" {
		return nil, h.faults.metaCreate
	}
	f, err := h.OS.Create(name)
	if err != nil || !isSnapshotTmp(name) {
		return f, err
	}
	h.snapCreates++
	return &parkFile{File: f, h: h}, nil
}

func (h *hookFS) Remove(name string) error {
	h.mu.Lock()
	err := h.faults.remove
	h.mu.Unlock()
	if err != nil && strings.HasPrefix(filepath.Base(name), "ckpt-") && filepath.Ext(name) == ".crow" {
		return err
	}
	return h.OS.Remove(name)
}

func (h *hookFS) Rename(oldname, newname string) error {
	h.mu.Lock()
	h.lastRename = filepath.Base(newname)
	h.mu.Unlock()
	return h.OS.Rename(oldname, newname)
}

func (h *hookFS) SyncDir(dir string) error {
	h.mu.Lock()
	err := h.faults.metaSync
	meta := h.lastRename == "CHECKPOINT"
	h.mu.Unlock()
	if err != nil && meta {
		return err
	}
	return h.OS.SyncDir(dir)
}

type parkFile struct {
	vfs.File
	h *hookFS
}

func (f *parkFile) Sync() error {
	f.h.mu.Lock()
	parked, release := f.h.parked, f.h.release
	f.h.release = nil
	f.h.mu.Unlock()
	if release != nil {
		close(parked)
		<-release
	}
	return f.File.Sync()
}

// hangAfter is how long a step may take before the test calls it hung.
const hangAfter = 10 * time.Second

func waitFor(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(hangAfter):
		t.Fatalf("%s: no progress in %v", what, hangAfter)
	}
}

// returns runs fn and fails the test if it has not returned in hangAfter.
// fn runs on its own goroutine, so it reports through captured variables,
// never through t.
func returns(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	waitFor(t, what, done)
}

// TestCheckpointParkedBlocksNobody parks a checkpoint inside its snapshot
// fsync. Reads, appends and compaction must carry on meanwhile; Close
// must wait for the checkpoint; and the directory must reopen to exactly
// the acked rows.
func TestCheckpointParkedBlocksNobody(t *testing.T) {
	dir := t.TempDir()
	h := &hookFS{}
	cfg := LiveConfig{SealRows: 20, CheckpointRows: -1, Sync: wal.SyncNone, SegmentBytes: 4096}
	all := genStream(31, 60)
	recs, extra := all[:40], all[40:]
	cfgH := cfg
	cfgH.FS = h
	ls, err := OpenLive(dir, cfgH)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := ls.Append(rec); err != nil {
			t.Fatal(err)
		}
	}

	parked, release := h.parkNext()
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce) // unblocks the checkpoint if the test fails early
	ckptErr := make(chan error, 1)
	go func() { ckptErr <- ls.Checkpoint() }()
	waitFor(t, "checkpoint reaching its snapshot fsync", parked)

	var appendErr error
	returns(t, "View", func() { ls.View() })
	returns(t, "Append", func() {
		for _, rec := range extra {
			if appendErr = ls.Append(rec); appendErr != nil {
				return
			}
		}
	})
	if appendErr != nil {
		t.Fatalf("append beside a parked checkpoint: %v", appendErr)
	}
	returns(t, "Rows", func() { ls.Rows() })
	returns(t, "ViewStats", func() { ls.ViewStats() })
	if got, want := ls.Rows(), len(streamRows(all)); got != want {
		t.Fatalf("acked %d rows, want %d", got, want)
	}
	// Recovery re-seals at the original boundaries, so the reference is
	// taken before compaction merges them.
	want := snapshotBytes(t, ls)
	merged := 0
	returns(t, "Compact", func() { merged = ls.Compact(1 << 20) })
	if merged == 0 {
		t.Fatal("Compact merged nothing; the test needs several sealed segments")
	}

	closeErr := make(chan error, 1)
	go func() { closeErr <- ls.Close() }()
	select {
	case err := <-closeErr:
		t.Fatalf("Close returned (%v) while a checkpoint was in flight", err)
	case err := <-ckptErr:
		t.Fatalf("parked checkpoint returned early: %v", err)
	default:
	}
	releaseOnce()
	select {
	case err := <-ckptErr:
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	case <-time.After(hangAfter):
		t.Fatal("released checkpoint did not return")
	}
	select {
	case err := <-closeErr:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(hangAfter):
		t.Fatal("Close did not return after the checkpoint finished")
	}

	re, err := OpenLive(dir, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if !bytes.Equal(snapshotBytes(t, re), want) {
		t.Fatal("reopened store differs from the acked rows")
	}
}

// TestAutoCheckpointsCoalesce: Appends that cross CheckpointRows while a
// checkpoint is in flight all wait for it, then write one more snapshot
// between them, not one each.
func TestAutoCheckpointsCoalesce(t *testing.T) {
	dir := t.TempDir()
	h := &hookFS{}
	cfg := LiveConfig{SealRows: 10, CheckpointRows: 30, Sync: wal.SyncNone}
	cfgH := cfg
	cfgH.FS = h
	ls, err := OpenLive(dir, cfgH)
	if err != nil {
		t.Fatal(err)
	}
	batch := uint32(0)
	next := func() []model.Instance {
		rows := make([]model.Instance, 10)
		for i := range rows {
			rows[i] = model.Instance{Batch: batch, Item: uint32(i), Start: int64(batch), End: int64(batch) + 5, Trust: 0.5}
		}
		batch++
		return rows
	}
	// Each 10-row batch seals the one before it, so the fourth append
	// leaves 30 sealed rows uncovered and checkpoints.
	for k := 0; k < 3; k++ {
		if err := ls.Append(next()); err != nil {
			t.Fatal(err)
		}
	}
	if n := h.creates(); n != 0 {
		t.Fatalf("%d snapshots before the threshold", n)
	}
	parked, release := h.parkNext()
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	const waiters = 4
	errs := make(chan error, waiters+1)
	go func() { errs <- ls.Append(next()) }()
	waitFor(t, "threshold checkpoint reaching its snapshot fsync", parked)

	// Start the waiters one at a time, so batch IDs stay in order: each
	// one's rows are applied (Rows counts them) before the next starts,
	// and each then waits for the parked checkpoint.
	for k := 0; k < waiters; k++ {
		rows := next()
		want := 10 * int(batch) // every row so far, these included
		go func() { errs <- ls.Append(rows) }()
		returns(t, fmt.Sprintf("waiter %d applying its rows", k), func() {
			for ls.Rows() < want {
				runtime.Gosched()
			}
		})
	}
	releaseOnce()
	for k := 0; k <= waiters; k++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("append: %v", err)
			}
		case <-time.After(hangAfter):
			t.Fatal("append did not return after the checkpoint finished")
		}
	}
	if n := h.creates(); n != 2 {
		t.Fatalf("%d snapshots written, want 2 (the parked one, then one for all %d waiters)", n, waiters)
	}
	want := snapshotBytes(t, ls)
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenLive(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(snapshotBytes(t, re), want) {
		t.Fatal("reopened store differs from the acked rows")
	}
}

// TestCheckpointCommitsAtMeta: a checkpoint whose meta is durable is the
// live one even if releasing the old snapshot then fails, and a snapshot
// sequence whose meta may have reached the disk is never written again.
// Otherwise, after a full disk and RecoverWrites, the next checkpoint
// replaces the snapshot the meta names, and a failure before its own
// meta flips leaves a directory that will not open.
func TestCheckpointCommitsAtMeta(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first ckptFaults // injected into the second checkpoint
	}{
		{"old snapshot removal fails", ckptFaults{remove: syscall.ENOSPC}},
		{"meta directory sync fails", ckptFaults{metaSync: syscall.ENOSPC}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			h := &hookFS{}
			cfg := LiveConfig{SealRows: 40, CheckpointRows: -1, Sync: wal.SyncNone, SegmentBytes: 4096}
			cfgH := cfg
			cfgH.FS = h
			ls, err := OpenLive(dir, cfgH)
			if err != nil {
				t.Fatal(err)
			}
			all := genStream(41, 90)
			appendAll := func(recs [][]model.Instance) {
				t.Helper()
				for _, rec := range recs {
					if err := ls.Append(rec); err != nil {
						t.Fatal(err)
					}
				}
			}
			appendAll(all[:30])
			if err := ls.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			appendAll(all[30:60])
			h.set(tc.first)
			ls.Checkpoint() // its error, if any, is the injected fault
			h.set(ckptFaults{})
			if err := ls.RecoverWrites(); err != nil {
				t.Fatal(err)
			}
			appendAll(all[60:])
			want := snapshotBytes(t, ls)
			h.set(ckptFaults{metaCreate: syscall.ENOSPC})
			if err := ls.Checkpoint(); !errors.Is(err, ErrDegraded) {
				t.Fatalf("checkpoint with no room for its meta: %v, want ErrDegraded", err)
			}
			h.set(ckptFaults{})
			if err := ls.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := OpenLive(dir, cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			if !bytes.Equal(snapshotBytes(t, re), want) {
				t.Fatal("reopened store differs from the acked rows")
			}
		})
	}
}

// noSyncFS is the real filesystem with fsync switched off, so
// BenchmarkCheckpoint times the checkpoint's own work, not the device.
type noSyncFS struct{ vfs.OS }

type noSyncFile struct{ vfs.File }

func (noSyncFile) Sync() error { return nil }

func (n noSyncFS) Create(name string) (vfs.File, error) {
	f, err := n.OS.Create(name)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

// BenchmarkCheckpoint times one checkpoint of a sealed store of about
// 230K rows: capture, snapshot write from the sealed encodings, meta,
// WAL truncation and removal of the previous snapshot. Preloading and
// Close run off the clock.
func BenchmarkCheckpoint(b *testing.B) {
	ls, err := OpenLive(b.TempDir(), LiveConfig{SealRows: 1 << 14, CheckpointRows: -1, Sync: wal.SyncNone, FS: noSyncFS{}})
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range genStream(51, 12000) {
		if err := ls.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	ls.mu.Lock()
	sealed := ls.sealRows
	ls.mu.Unlock()
	if sealed < 200_000 {
		b.Fatalf("only %d sealed rows", sealed)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ls.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sealed), "rows")
	if err := ls.Close(); err != nil {
		b.Fatal(err)
	}
}
