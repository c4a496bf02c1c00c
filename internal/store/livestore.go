package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"crowdscope/internal/model"
	"crowdscope/internal/vfs"
	"crowdscope/internal/wal"
)

// LiveStore is the durable ingest front of the store: appended instance
// rows are WAL-logged (and synced, under the default policy) before they
// are acknowledged, appended to one set of flat columns, sealed into
// immutable segments at a row threshold, and periodically checkpointed —
// a v3 snapshot of the sealed segments plus the WAL position the
// snapshot covers, written atomically via temp-file rename.
// OpenLive recovers a crashed directory by loading the checkpoint and
// replaying the WAL suffix through the same apply path the live process
// used, which makes the recovered state bit-identical to an uncrashed
// process that ingested the same records.
//
// Each row is held once. The columns hold the sealed segments' rows and
// then the open segment's rows; a sealed segment is a SegmentInfo span
// of them plus its zone map and encoding. Rows are only ever appended
// past every reader's clipped length, never rewritten, so views (see
// liveview.go), checkpoints and compaction read the columns through
// clipped slice headers instead of copying them.
//
// Determinism is the load-bearing property. Recovery replays the record
// stream, so everything the in-memory state depends on must be a pure
// function of that stream (plus the configured thresholds): records are
// validated BEFORE they are logged, so apply can never fail; seal
// decisions happen only at record boundaries; and a batch never splits
// across segments because a seal additionally waits for the batch ID to
// advance. Reopen a directory with the thresholds it was written under.
//
// The directory layout is
//
//	dir/wal/wal-*.log    the record log (see internal/wal)
//	dir/ckpt-%08d.crow   checkpoint snapshots (ordinary v3 snapshots)
//	dir/CHECKPOINT       points at the live snapshot + its WAL position
type LiveStore struct {
	dir string
	cfg LiveConfig
	fs  vfs.FS

	// ckptMu serializes checkpoints. It is always taken before mu, never
	// while holding mu, so a checkpoint writes its files with mu released
	// (see checkpoint).
	ckptMu sync.Mutex

	mu  sync.Mutex
	log *wal.Log

	// cols holds every row: [0:sealRows) are the sealed segments' rows,
	// the rest the open segment's. ranges[b] is batch b's global row
	// range; only the newest batch's entry is ever rewritten.
	cols   liveCols
	ranges []rowRange

	// The sealed layout, one entry per segment in row order. Seals append
	// past every reader's length; compaction installs fresh slices, never
	// edits these in place, so readers may keep the headers.
	segs  []SegmentInfo
	zones []ZoneMap
	encs  []SegmentEnc

	// The open segment: rows [sealRows, cols.len()), batches
	// [openBatchLo, curBatch], its zone folded in as rows arrive.
	openBatchLo uint32
	openZone    zoneAcc
	openStart   wal.LSN // LSN of the first record in the open segment

	// gen is the generation views carry: fresh on open, on every seal and
	// on every compaction that merges, stable while only the open
	// segment grows.
	gen uint64

	curBatch uint32 // highest batch ID appended
	haveRows bool
	ackRows  int    // rows acknowledged (or recovered) so far
	sealRows int    // rows in sealed segments
	ckptSeq  uint64 // the live snapshot's sequence
	ckptRows int    // sealed rows covered by the live checkpoint
	// lastSeq is the highest snapshot sequence a checkpoint has written
	// to. Sequences are never reused, so a checkpoint never overwrites a
	// snapshot the on-disk meta might name.
	lastSeq uint64
	closed  bool
	failed  bool

	// degraded marks the read-only state disk exhaustion puts the store
	// in: appends and checkpoints are refused with ErrDegraded while
	// queries keep serving, and RecoverWrites re-arms the writers once
	// space returns. Unlike failed, nothing acknowledged is in doubt —
	// the WAL never advances its acked offset past a failed write.
	degraded       bool
	degradedReason string

	// view caches the latest view and counts View calls (see
	// liveview.go); guarded by mu.
	view viewState
}

// liveCols is the live store's one copy of its rows, one append-only
// array per column.
type liveCols struct {
	batch, taskType, item, worker, answer []uint32
	start, end                            []int64
	trust                                 []float32
}

func (c *liveCols) len() int { return len(c.start) }

func (c *liveCols) append(in model.Instance) {
	c.batch = append(c.batch, in.Batch)
	c.taskType = append(c.taskType, in.TaskType)
	c.item = append(c.item, in.Item)
	c.worker = append(c.worker, in.Worker)
	c.answer = append(c.answer, in.Answer)
	c.start = append(c.start, in.Start)
	c.end = append(c.end, in.End)
	c.trust = append(c.trust, in.Trust)
}

// store returns a raw-resident Store over rows [0,n) that shares the
// columns' storage. The headers are clipped to n, so later appends never
// touch what the store reads.
func (c *liveCols) store(n int, ranges []rowRange, segs []SegmentInfo, zones []ZoneMap, gen uint64) *Store {
	return &Store{
		batch:    c.batch[:n:n],
		taskType: c.taskType[:n:n],
		item:     c.item[:n:n],
		worker:   c.worker[:n:n],
		answer:   c.answer[:n:n],
		start:    c.start[:n:n],
		end:      c.end[:n:n],
		trust:    c.trust[:n:n],
		rows:     n,
		ranges:   ranges,
		segs:     segs,
		zones:    zones,
		fill:     &fillState{},
		gen:      gen,
	}
}

// encode encodes rows [lo,hi) of the columns as one segment.
func (c *liveCols) encode(lo, hi int) SegmentEnc {
	return encodeSegmentColumns(c.batch[lo:hi], c.taskType[lo:hi], c.item[lo:hi], c.worker[lo:hi],
		c.answer[lo:hi], c.start[lo:hi], c.end[lo:hi], c.trust[lo:hi])
}

// LiveConfig tunes a LiveStore. The thresholds are part of the recovery
// contract: reopen a directory with the values it was written under.
type LiveConfig struct {
	// SealRows is the open segment's row count at which the next batch
	// boundary seals it into an immutable segment. Zero means 1 << 16.
	SealRows int
	// CheckpointRows checkpoints automatically once that many sealed rows
	// are not yet covered by a checkpoint. The Append that crosses the
	// threshold acks its rows and then checkpoints with the store's lock
	// released; Appends that cross it together write one checkpoint. Zero
	// means 4 * SealRows; negative disables auto-checkpointing
	// (Checkpoint still works).
	CheckpointRows int
	// Sync is the WAL fsync policy; the zero value is SyncAlways, under
	// which an acknowledged append survives any crash.
	Sync wal.SyncPolicy
	// SegmentBytes is the WAL rotation threshold; zero means the WAL
	// default.
	SegmentBytes int64
	// FS is the filesystem everything lives on; nil means the real one.
	// The fault-injection tests swap in internal/faultfs here.
	FS vfs.FS
}

func (c *LiveConfig) fill() {
	if c.SealRows <= 0 {
		c.SealRows = 1 << 16
	}
	if c.CheckpointRows == 0 {
		c.CheckpointRows = 4 * c.SealRows
	}
	if c.FS == nil {
		c.FS = vfs.OS{}
	}
}

// ErrLiveFailed poisons a LiveStore after a write, sync or checkpoint
// failure: the on-disk tail is undefined, so further appends are refused.
// Reopen the directory to recover the durable prefix.
var ErrLiveFailed = errors.New("store: live store failed; reopen to recover")

// ErrDegraded marks the read-only degraded state a LiveStore enters when
// the disk fills up (ENOSPC on a WAL append or checkpoint): appends and
// checkpoints are refused, reads and queries keep working, and
// RecoverWrites restores write service once space returns — no reopen
// needed, because a full disk never leaves acknowledged data in doubt.
var ErrDegraded = errors.New("store: live store degraded (read-only): disk full")

// isDiskFull reports whether err is disk exhaustion — the one write
// failure that is expected to clear on its own and so degrades the store
// instead of poisoning it.
func isDiskFull(err error) bool { return errors.Is(err, syscall.ENOSPC) }

// Record payload layout (the WAL stores opaque payloads; this is the
// live store's record codec). A record is one acknowledged Append call:
//
//	byte   kind (1 = instance rows)
//	uvarint row count
//	per row: uvarint batch delta (from previous row; batches ascend),
//	         uvarint taskType, item, worker, answer,
//	         uvarint zigzag(start delta), uvarint zigzag(end - start),
//	         4-byte LE float32 trust bits
//
// Every field is input-bounded on decode; a record that fails validation
// is never written, so replay of a CRC-clean log cannot fail.
const (
	recKindRows = 1
	// MaxAppendRows bounds one Append call (and so one WAL record).
	MaxAppendRows = 1 << 20
)

// encodeRecord serializes rows, which must already be validated.
func encodeRecord(rows []model.Instance) []byte {
	var b bytes.Buffer
	b.WriteByte(recKindRows)
	putUvarint(&b, uint64(len(rows)))
	prevBatch := uint32(0)
	prevStart := int64(0)
	var f [4]byte
	for _, in := range rows {
		putUvarint(&b, uint64(in.Batch-prevBatch))
		prevBatch = in.Batch
		putUvarint(&b, uint64(in.TaskType))
		putUvarint(&b, uint64(in.Item))
		putUvarint(&b, uint64(in.Worker))
		putUvarint(&b, uint64(in.Answer))
		putUvarint(&b, zigzag(in.Start-prevStart))
		prevStart = in.Start
		putUvarint(&b, zigzag(in.End-in.Start))
		binary.LittleEndian.PutUint32(f[:], math.Float32bits(in.Trust))
		b.Write(f[:])
	}
	return b.Bytes()
}

// decodeRecord inverts encodeRecord, validating every bound. The rows of
// a valid record have non-decreasing batch IDs by construction.
func decodeRecord(p []byte) ([]model.Instance, error) {
	sr := &sliceReader{buf: p}
	kind, err := sr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("record kind: %w", ErrTruncated)
	}
	if kind != recKindRows {
		return nil, fmt.Errorf("record kind %d: %w", kind, ErrCorrupt)
	}
	n, err := getUvarint(sr)
	if err != nil {
		return nil, fmt.Errorf("record row count: %w", asTruncated(err))
	}
	if n == 0 || n > MaxAppendRows {
		return nil, fmt.Errorf("record row count %d: %w", n, ErrCorrupt)
	}
	// Bound the allocation by the input: every row costs ≥ 11 bytes.
	if int(n) > sr.remaining()/11+1 {
		return nil, fmt.Errorf("record row count %d exceeds payload: %w", n, ErrCorrupt)
	}
	rows := make([]model.Instance, n)
	prevBatch := uint64(0)
	prevStart := int64(0)
	var f [4]byte
	for i := range rows {
		d, err := getUvarint(sr)
		if err != nil {
			return nil, fmt.Errorf("row %d batch: %w", i, asTruncated(err))
		}
		batch := prevBatch + d
		if batch > math.MaxUint32 {
			return nil, fmt.Errorf("row %d batch %d: %w", i, batch, ErrCorrupt)
		}
		prevBatch = batch
		rows[i].Batch = uint32(batch)
		for _, dst := range []*uint32{&rows[i].TaskType, &rows[i].Item, &rows[i].Worker, &rows[i].Answer} {
			v, err := getUvarint(sr)
			if err != nil || v > math.MaxUint32 {
				return nil, fmt.Errorf("row %d column: %w", i, ErrCorrupt)
			}
			*dst = uint32(v)
		}
		sd, err := getUvarint(sr)
		if err != nil {
			return nil, fmt.Errorf("row %d start: %w", i, asTruncated(err))
		}
		rows[i].Start = prevStart + unzigzag(sd)
		prevStart = rows[i].Start
		ed, err := getUvarint(sr)
		if err != nil {
			return nil, fmt.Errorf("row %d end: %w", i, asTruncated(err))
		}
		rows[i].End = rows[i].Start + unzigzag(ed)
		if _, err := io.ReadFull(sr, f[:]); err != nil {
			return nil, fmt.Errorf("row %d trust: %w", i, ErrTruncated)
		}
		rows[i].Trust = math.Float32frombits(binary.LittleEndian.Uint32(f[:]))
	}
	if sr.remaining() != 0 {
		return nil, fmt.Errorf("%d trailing record bytes: %w", sr.remaining(), ErrCorrupt)
	}
	return rows, nil
}

// Checkpoint meta file: a single fixed-size frame naming the live
// snapshot and the WAL position it covers. Written via temp-file rename,
// so it is either the old version or the new one, never a mix; the CRC
// catches bit rot, which (unlike a torn tail) is not recoverable here —
// the meta is the root of trust for what the WAL may have discarded.
const (
	ckptMagic = 0x504B4343 // "CCKP"
	ckptLen   = 4 + 4 + 8 + 8 + 8 + 8 + 4
)

type ckptMeta struct {
	seq  uint64  // snapshot sequence: the live snapshot is ckptName(seq)
	lsn  wal.LSN // replay resumes here; everything before is in the snapshot
	rows uint64  // rows in the snapshot, cross-checked after load
}

func ckptName(seq uint64) string { return fmt.Sprintf("ckpt-%08d.crow", seq) }

func encodeCkptMeta(m ckptMeta) []byte {
	b := make([]byte, ckptLen)
	binary.LittleEndian.PutUint32(b[0:4], ckptMagic)
	binary.LittleEndian.PutUint32(b[4:8], 1) // meta format version
	binary.LittleEndian.PutUint64(b[8:16], m.seq)
	binary.LittleEndian.PutUint64(b[16:24], m.lsn.Seg)
	binary.LittleEndian.PutUint64(b[24:32], uint64(m.lsn.Off))
	binary.LittleEndian.PutUint64(b[32:40], m.rows)
	binary.LittleEndian.PutUint32(b[40:44], crc32.ChecksumIEEE(b[:40]))
	return b
}

func decodeCkptMeta(b []byte) (ckptMeta, error) {
	var m ckptMeta
	if len(b) != ckptLen {
		return m, fmt.Errorf("checkpoint meta is %d bytes, want %d: %w", len(b), ckptLen, ErrTruncated)
	}
	if binary.LittleEndian.Uint32(b[0:4]) != ckptMagic {
		return m, fmt.Errorf("checkpoint meta: %w", ErrBadMagic)
	}
	if crc32.ChecksumIEEE(b[:40]) != binary.LittleEndian.Uint32(b[40:44]) {
		return m, fmt.Errorf("checkpoint meta: %w", ErrChecksum)
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != 1 {
		return m, fmt.Errorf("checkpoint meta version %d: %w", v, ErrBadVersion)
	}
	m.seq = binary.LittleEndian.Uint64(b[8:16])
	m.lsn = wal.LSN{Seg: binary.LittleEndian.Uint64(b[16:24]), Off: int64(binary.LittleEndian.Uint64(b[24:32]))}
	m.rows = binary.LittleEndian.Uint64(b[32:40])
	return m, nil
}

// OpenLive opens (creating if needed) the live store in dir and recovers
// it: the checkpoint snapshot is loaded strictly, the WAL is opened —
// which truncates any torn tail — and the surviving record suffix is
// replayed through the ordinary apply path. The recovered rows are
// exactly a prefix of the record stream past appends submitted, and
// include every acknowledged append (under the default sync policy).
func OpenLive(dir string, cfg LiveConfig) (*LiveStore, error) {
	cfg.fill()
	fs := cfg.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	ls := &LiveStore{dir: dir, cfg: cfg, fs: fs, gen: NextGeneration()}

	// Root of trust: the CHECKPOINT meta, absent on a fresh directory.
	var ckptLSN wal.LSN
	meta, ok, err := ls.readCkptMeta()
	if err != nil {
		return nil, err
	}
	if ok {
		if err := ls.loadCheckpoint(meta); err != nil {
			return nil, err
		}
		ckptLSN = meta.lsn
		ls.ckptSeq, ls.lastSeq = meta.seq, meta.seq
	}
	ls.ckptRows = ls.sealRows
	ls.ackRows = ls.sealRows

	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{
		SegmentBytes: cfg.SegmentBytes, Sync: cfg.Sync, FS: fs,
	})
	if err != nil {
		return nil, err
	}
	ls.log = log
	err = log.Replay(ckptLSN, func(lsn wal.LSN, payload []byte) error {
		rows, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("wal record at %v: %w", lsn, err)
		}
		if ls.haveRows && rows[0].Batch < ls.curBatch {
			return fmt.Errorf("wal record at %v: batch %d regresses below %d: %w",
				lsn, rows[0].Batch, ls.curBatch, ErrCorrupt)
		}
		ls.applyLocked(lsn, rows)
		ls.ackRows += len(rows)
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	// If damage tore the WAL back behind the checkpoint position, appending
	// there would hide new records behind the replay start; skip forward.
	if err := log.AdvancePast(ckptLSN); err != nil {
		log.Close()
		return nil, err
	}
	if err := ls.removeStaleFiles(); err != nil {
		log.Close()
		return nil, err
	}
	return ls, nil
}

// readCkptMeta reads and validates dir/CHECKPOINT; ok is false when the
// file does not exist (a fresh or never-checkpointed directory).
func (ls *LiveStore) readCkptMeta() (ckptMeta, bool, error) {
	f, err := ls.fs.OpenRead(filepath.Join(ls.dir, "CHECKPOINT"))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return ckptMeta{}, false, nil
		}
		return ckptMeta{}, false, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return ckptMeta{}, false, err
	}
	if size > ckptLen {
		size = ckptLen + 1 // oversize fails decode with a length error
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return ckptMeta{}, false, err
	}
	m, err := decodeCkptMeta(buf)
	if err != nil {
		return ckptMeta{}, false, err
	}
	return m, true, nil
}

// loadCheckpoint strict-loads the snapshot meta points at and adopts its
// columns and sealed layout. Zone maps and encodings are carried over,
// not recomputed — the seal computed them from the same bytes, so the
// round trip through a snapshot is bit-identical.
func (ls *LiveStore) loadCheckpoint(meta ckptMeta) error {
	path := filepath.Join(ls.dir, ckptName(meta.seq))
	f, err := ls.fs.OpenRead(path)
	if err != nil {
		return fmt.Errorf("checkpoint snapshot %s: %w", ckptName(meta.seq), err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return err
	}
	st := New(0)
	if _, err := st.ReadSnapshot(io.NewSectionReader(f, 0, size), LoadOptions{Mode: LoadStrict}); err != nil {
		return fmt.Errorf("checkpoint snapshot %s: %w", ckptName(meta.seq), err)
	}
	if st.Len() != int(meta.rows) {
		return fmt.Errorf("checkpoint snapshot %s holds %d rows, meta says %d: %w",
			ckptName(meta.seq), st.Len(), meta.rows, ErrCorrupt)
	}
	if st.Len() == 0 {
		return nil
	}
	n := len(st.segs)
	if n == 0 || len(st.zones) != n || len(st.encs) != n {
		return fmt.Errorf("checkpoint snapshot %s lacks a segment layout: %w", ckptName(meta.seq), ErrCorrupt)
	}
	st.ensure(colMaskAll)
	ls.cols = liveCols{batch: st.batch, taskType: st.taskType, item: st.item, worker: st.worker,
		answer: st.answer, start: st.start, end: st.end, trust: st.trust}
	ls.ranges = st.ranges
	ls.segs, ls.zones, ls.encs = st.segs, st.zones, st.encs
	ls.sealRows = st.Len()
	ls.curBatch = st.segs[n-1].BatchHi - 1
	ls.haveRows = true
	return nil
}

// removeStaleFiles deletes temp files and snapshots other than the live
// one — leftovers of a crash mid-checkpoint.
func (ls *LiveStore) removeStaleFiles() error {
	names, err := ls.fs.ReadDir(ls.dir)
	if err != nil {
		return err
	}
	live := ckptName(ls.ckptSeq)
	for _, name := range names {
		var seq uint64
		stale := false
		if _, err := fmt.Sscanf(name, "ckpt-%08d.crow", &seq); err == nil && name == ckptName(seq) {
			stale = name != live
		}
		if filepath.Ext(name) == ".tmp" {
			stale = true
		}
		if stale {
			if err := ls.fs.Remove(filepath.Join(ls.dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Append validates rows, logs them as one WAL record, and — only after
// the log accepts (and, under SyncAlways, syncs) the record — appends
// them to the open segment and acknowledges. Rows must arrive in batch
// order: batch IDs non-decreasing within the call and no lower than the
// store's highest batch. A nil error means the rows are durable under
// the configured sync policy; after any error the store is poisoned and
// must be reopened.
//
// When the append leaves CheckpointRows sealed rows uncovered, Append
// then checkpoints (see checkpoint), after the rows are applied and
// ls.mu is released. A full disk there still acks the rows, which are
// WAL-durable, and degrades the store; any other checkpoint error is
// returned.
func (ls *LiveStore) Append(rows []model.Instance) error {
	due, err := ls.appendRecord(rows)
	if err != nil || !due {
		return err
	}
	return ls.checkpoint(true)
}

// appendRecord is Append under ls.mu: validate, log, apply. It reports
// whether a threshold checkpoint is due.
func (ls *LiveStore) appendRecord(rows []model.Instance) (bool, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if err := ls.writeErrLocked(); err != nil {
		return false, err
	}
	if len(rows) == 0 {
		return false, nil
	}
	if len(rows) > MaxAppendRows {
		return false, fmt.Errorf("store: %d rows exceed the %d-row append cap", len(rows), MaxAppendRows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Batch < rows[i-1].Batch {
			return false, fmt.Errorf("store: append rows out of batch order (%d after %d)", rows[i].Batch, rows[i-1].Batch)
		}
	}
	if ls.haveRows && rows[0].Batch < ls.curBatch {
		return false, fmt.Errorf("store: append batch %d regresses below %d", rows[0].Batch, ls.curBatch)
	}
	// With no open rows, the highest batch is inside a sealed segment;
	// continuing it would split the batch across segments.
	if ls.haveRows && ls.openRows() == 0 && rows[0].Batch == ls.curBatch {
		return false, fmt.Errorf("store: append batch %d is already sealed", rows[0].Batch)
	}
	lsn, err := ls.log.Append(encodeRecord(rows))
	if err != nil {
		if isDiskFull(err) {
			// A full disk is survivable: the record was not acked, the WAL
			// self-poisoned at the last acked frame boundary, and
			// RecoverWrites can truncate the torn tail and resume once
			// space returns. Degrade to read-only instead of poisoning.
			ls.enterDegradedLocked(err)
			return false, fmt.Errorf("%w: wal append: %v", ErrDegraded, err)
		}
		ls.failed = true
		return false, fmt.Errorf("store: wal append: %w", err)
	}
	ls.applyLocked(lsn, rows)
	ls.ackRows += len(rows)
	return ls.ckptDueLocked(), nil
}

// writeErrLocked returns why the store refuses writes, or nil.
func (ls *LiveStore) writeErrLocked() error {
	switch {
	case ls.closed:
		return fmt.Errorf("store: live store closed")
	case ls.failed:
		return ErrLiveFailed
	case ls.degraded:
		return fmt.Errorf("%w (%s)", ErrDegraded, ls.degradedReason)
	}
	return nil
}

// ckptDueLocked reports whether CheckpointRows sealed rows are not yet
// covered by a checkpoint.
func (ls *LiveStore) ckptDueLocked() bool {
	return ls.cfg.CheckpointRows > 0 && ls.sealRows-ls.ckptRows >= ls.cfg.CheckpointRows
}

// enterDegradedLocked flips the store into the read-only degraded state.
func (ls *LiveStore) enterDegradedLocked(cause error) {
	ls.degraded = true
	ls.degradedReason = cause.Error()
}

// openRows returns how many rows the open segment holds.
func (ls *LiveStore) openRows() int { return ls.cols.len() - ls.sealRows }

// applyLocked folds one validated record into the in-memory state. It is
// the single apply path — live appends and recovery replay both go
// through it — and it cannot fail: everything it depends on was
// validated before the record reached the WAL.
func (ls *LiveStore) applyLocked(lsn wal.LSN, rows []model.Instance) {
	// Seal only at a record boundary, and only once the batch ID advances:
	// a batch never splits across segments, so the decision is a pure
	// function of the record stream and the configured threshold.
	if ls.openRows() >= ls.cfg.SealRows && rows[0].Batch > ls.curBatch {
		ls.sealLocked()
	}
	if ls.openRows() == 0 {
		ls.openBatchLo = rows[0].Batch
		ls.openStart = lsn
	}
	lo := ls.cols.len()
	for _, in := range rows {
		if !ls.haveRows || in.Batch != ls.curBatch {
			if grow := int(in.Batch) + 1 - len(ls.ranges); grow > 0 {
				ls.ranges = append(ls.ranges, make([]rowRange, grow)...)
			}
			n := int32(ls.cols.len())
			ls.ranges[in.Batch] = rowRange{Lo: n, Hi: n}
			ls.curBatch = in.Batch
			ls.haveRows = true
		}
		ls.cols.append(in)
		ls.ranges[in.Batch].Hi++
	}
	c := &ls.cols
	ls.openZone.fold(c.taskType, c.item, c.worker, c.answer, c.start, c.end, c.trust, lo, c.len())
}

// sealLocked seals the open segment: its span, folded zone and a fresh
// encoding join the sealed layout. No row moves.
func (ls *LiveStore) sealLocked() {
	lo, hi := ls.sealRows, ls.cols.len()
	ls.segs = append(ls.segs, SegmentInfo{RowLo: lo, RowHi: hi, BatchLo: ls.openBatchLo, BatchHi: ls.curBatch + 1})
	ls.zones = append(ls.zones, ls.openZone.z)
	ls.encs = append(ls.encs, ls.cols.encode(lo, hi))
	ls.openZone = zoneAcc{}
	ls.sealRows = hi
	ls.gen = NextGeneration()
}

// Checkpoint writes a checkpoint now: a v3 snapshot of the sealed
// segments, the CHECKPOINT meta naming it, and a WAL truncation
// releasing the log prefix the snapshot covers. Each step is atomic
// (temp-file rename) and ordered so that a crash at any point leaves a
// recoverable directory: at worst an orphaned snapshot or an
// un-truncated WAL, never a checkpoint that names missing data. The
// files are written with the store's lock released, so views, appends
// and compaction carry on meanwhile; a concurrent Checkpoint or Close
// waits for this one.
func (ls *LiveStore) Checkpoint() error { return ls.checkpoint(false) }

// checkpoint runs one checkpoint in three phases:
//
//  1. Capture, under ls.mu: a Store over the sealed prefix (sealed rows,
//     layout and encodings are immutable, and compaction installs fresh
//     slices, so the headers stay valid), the WAL position replay must
//     resume from, and a fresh snapshot sequence.
//  2. Write, with ls.mu released: writeCheckpoint. The WAL has its own
//     lock.
//  3. Commit, under ls.mu: the checkpoint position advances if the meta
//     became durable; ENOSPC degrades the store, any other error fails it.
//
// ckptMu, held throughout, serializes checkpoints. auto marks Append's
// threshold checkpoint: once it holds ckptMu it runs only if one is still
// due (a concurrent Append may just have written it, so Appends crossing
// the threshold together write one snapshot), and a full disk degrades
// the store without failing the Append.
func (ls *LiveStore) checkpoint(auto bool) error {
	ls.ckptMu.Lock()
	defer ls.ckptMu.Unlock()

	ls.mu.Lock()
	err := ls.writeErrLocked()
	if auto && (err != nil || !ls.ckptDueLocked()) {
		ls.mu.Unlock()
		return nil
	}
	if err != nil {
		ls.mu.Unlock()
		return err
	}
	st := ls.sealedStoreLocked()
	lsn := ls.log.End()
	if ls.openRows() > 0 {
		lsn = ls.openStart
	}
	prev := ls.ckptSeq
	ls.lastSeq++
	seq := ls.lastSeq
	ls.mu.Unlock()

	err = ls.writeCheckpoint(st, lsn, seq, prev)

	ls.mu.Lock()
	defer ls.mu.Unlock()
	switch {
	case err == nil:
		ls.ckptSeq, ls.ckptRows = seq, st.Len()
		return nil
	case isDiskFull(err):
		ls.enterDegradedLocked(err)
		if auto {
			return nil
		}
		return fmt.Errorf("%w: checkpoint: %v", ErrDegraded, err)
	}
	ls.failed = true
	return fmt.Errorf("store: checkpoint: %w", err)
}

// writeCheckpoint writes snapshot seq of st and the meta naming it, then
// releases what it covers. It runs without ls.mu. A nil error means the
// meta is durable and seq is the live snapshot.
func (ls *LiveStore) writeCheckpoint(st *Store, lsn wal.LSN, seq, prev uint64) error {
	// Step 1: the snapshot, durable under its final name. One encoding
	// worker, so a background checkpoint leaves the other cores to the
	// queries beside it; the bytes are the same for any worker count.
	if err := ls.writeFileAtomic(filepath.Join(ls.dir, ckptName(seq)), func(w vfs.File) error {
		_, err := st.WriteSnapshot(w, WriteOptions{Workers: 1})
		return err
	}); err != nil {
		return err
	}
	// Step 2: the meta, flipping recovery over to the new snapshot.
	meta := encodeCkptMeta(ckptMeta{seq: seq, lsn: lsn, rows: uint64(st.Len())})
	if err := ls.writeFileAtomic(filepath.Join(ls.dir, "CHECKPOINT"), func(w vfs.File) error {
		_, err := w.Write(meta)
		return err
	}); err != nil {
		return err
	}
	// Step 3: release what the snapshot covers. A failure here leaves
	// garbage, not damage, so it is not reported: recovery ignores both
	// leftovers, the next checkpoint's truncation retries the WAL
	// segments, and the next OpenLive removes a stale snapshot.
	_ = ls.log.TruncateBefore(lsn)
	if prev != 0 {
		_ = ls.fs.Remove(filepath.Join(ls.dir, ckptName(prev)))
	}
	return nil
}

// writeFileAtomic writes path via a synced temp file and rename, then
// syncs the directory: the file is either absent (or its old version) or
// complete, never partial. Error paths remove the temp file —
// open-time recovery would clean it up anyway, but a long-running
// server that survives a checkpoint failure (the store is poisoned, not
// restarted) must not leak one temp per retry until the next reopen.
// The removal is best-effort: on a dying filesystem the Remove may fail
// too, and the original error is the one worth reporting.
func (ls *LiveStore) writeFileAtomic(path string, fill func(vfs.File) error) error {
	tmp := path + ".tmp"
	w, err := ls.fs.Create(tmp)
	if err != nil {
		return err
	}
	if err := fill(w); err != nil {
		w.Close()
		ls.fs.Remove(tmp)
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		ls.fs.Remove(tmp)
		return err
	}
	if err := w.Close(); err != nil {
		ls.fs.Remove(tmp)
		return err
	}
	if err := ls.fs.Rename(tmp, path); err != nil {
		ls.fs.Remove(tmp)
		return err
	}
	return ls.fs.SyncDir(ls.dir)
}

// sealedStoreLocked returns a Store over the sealed prefix of the
// columns, carrying the sealed layout, zones and encodings; it shares
// every array with the live store. Sealed batches' range entries are
// final, so the range table is shared too.
func (ls *LiveStore) sealedStoreLocked() *Store {
	n := len(ls.segs)
	numBatches := 0
	if n > 0 {
		numBatches = int(ls.segs[n-1].BatchHi)
	}
	st := ls.cols.store(ls.sealRows, ls.ranges[:numBatches:numBatches], ls.segs[:n:n], ls.zones[:n:n], NextGeneration())
	st.encs = ls.encs[:n:n]
	return st
}

// Store returns the current contents — sealed segments plus the open
// rows as one more segment — as an immutable Store carrying full segment
// encodings and a fresh generation. It shares the view's columns; only
// the open segment's encoding is computed, outside ls.mu. The live store
// remains usable, and the returned store does not change as more rows
// arrive. Prefer View on a query-serving path.
func (ls *LiveStore) Store() (*Store, error) {
	ls.mu.Lock()
	st := ls.viewLocked()
	c, encs := ls.cols, ls.encs[:len(ls.encs):len(ls.encs)]
	ls.mu.Unlock()
	if open := st.segs[len(encs):]; len(open) > 0 {
		encs = append(encs, c.encode(open[0].RowLo, open[0].RowHi))
	}
	st.encs, st.gen = encs, NextGeneration()
	return st, nil
}

// Rows returns the number of acknowledged (or recovered) rows.
func (ls *LiveStore) Rows() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.ackRows
}

// NextBatch returns the lowest batch ID a future Append is always
// allowed to open: one past the highest batch ingested so far, or zero
// on an empty store. Ingest drivers use it to resume after recovery
// without tracking batch IDs themselves.
func (ls *LiveStore) NextBatch() uint32 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if !ls.haveRows {
		return 0
	}
	return ls.curBatch + 1
}

// SealedSegments returns how many immutable segments have been sealed.
func (ls *LiveStore) SealedSegments() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return len(ls.segs)
}

// Degraded reports whether the store is in the read-only degraded state
// (see ErrDegraded), and why.
func (ls *LiveStore) Degraded() (bool, string) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.degraded, ls.degradedReason
}

// RecoverWrites attempts to leave the degraded state: it probes the disk
// with a small synced write (so a still-full disk fails here, not on a
// caller's append), repairs the WAL writer — truncating any torn tail a
// failed append left past the last acknowledged frame — and re-arms
// writes. On success the store serves appends again with nothing lost;
// on failure the store stays degraded and the probe can simply be
// retried later. A no-op on a healthy store.
func (ls *LiveStore) RecoverWrites() error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	switch {
	case ls.closed:
		return fmt.Errorf("store: live store closed")
	case ls.failed:
		return ErrLiveFailed
	case !ls.degraded:
		return nil
	}
	if err := ls.probeDiskLocked(); err != nil {
		return fmt.Errorf("%w (probe: %v)", ErrDegraded, err)
	}
	if err := ls.log.Repair(); err != nil {
		return fmt.Errorf("%w (wal repair: %v)", ErrDegraded, err)
	}
	ls.degraded = false
	ls.degradedReason = ""
	return nil
}

// probeDiskLocked verifies the directory can take a small durable write:
// create, fill, sync, close, remove. The .tmp suffix means a crash
// mid-probe leaves a file open-time recovery already cleans up.
func (ls *LiveStore) probeDiskLocked() error {
	path := filepath.Join(ls.dir, "probe.tmp")
	w, err := ls.fs.Create(path)
	if err != nil {
		return err
	}
	var block [4096]byte
	if _, err := w.Write(block[:]); err != nil {
		w.Close()
		ls.fs.Remove(path)
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		ls.fs.Remove(path)
		return err
	}
	if err := w.Close(); err != nil {
		ls.fs.Remove(path)
		return err
	}
	return ls.fs.Remove(path)
}

// Close syncs and closes the WAL, after waiting for an in-flight
// checkpoint. The open segment's rows stay durable in the log and are
// rebuilt on the next OpenLive; Close does not checkpoint (call
// Checkpoint first to bound reopen replay).
func (ls *LiveStore) Close() error {
	ls.ckptMu.Lock()
	defer ls.ckptMu.Unlock()
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.closed {
		return nil
	}
	ls.closed = true
	return ls.log.Close()
}
