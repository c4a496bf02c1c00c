package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"crowdscope/internal/model"
	"crowdscope/internal/query"
	"crowdscope/internal/serve"
	"crowdscope/internal/store"
	"crowdscope/internal/synth"
	"crowdscope/internal/wal"
)

const (
	// sealRows fixes the live store's segment layout to row counts, so it
	// does not follow GOMAXPROCS the way generation shards do.
	sealRows = 1 << 14
	// compactMaxRows is crowdserved's default largest merged segment.
	compactMaxRows = 1 << 18
	// The live-dashboard maintenance periods: one compaction and one
	// checkpoint every two seconds, so several of each land in every run.
	compactEvery    = 2 * time.Second
	checkpointEvery = 2 * time.Second
	// live-dashboard queries dashWindows windows of windowRows rows each,
	// the newest preloaded ones.
	windowRows  = 8_000
	dashWindows = 4
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 5
	planEntries  = 128              // crowdserved's default plan cache
	queryTimeout = 30 * time.Second // crowdserved's default
)

// liveEnv is one set-up serving workload: the generated rows, the live
// store preloaded with them and the server over it, wired as
// cmd/crowdserved wires them.
type liveEnv struct {
	dir    string
	ds     *synth.Dataset // the generated rows; nil once released
	fs     *countFS
	ls     *store.LiveStore
	tables *query.SideTables
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	// since is when the server, and its maintenance tickers, started.
	since time.Time

	startRows, startSegments int
	windows                  [][2]uint32 // dashboard batch windows, newest first
	maxStart                 int64
	maxWeek                  int32
	workerIDs                []uint32
	taskTypes                int
}

// setupLive generates cfg's rows, preloads them batch by batch into
// a fresh live store (WAL flush policy none), and starts the server on a
// loopback listener. maintain turns on the compaction and checkpoint
// tickers and compacts once after the preload, so the timed phase starts
// from the layout the tickers keep.
func setupLive(dir string, cfg synth.Config, maintain bool, tr *tracer) (*liveEnv, error) {
	sp := tr.root("setup", 0)
	defer sp.end()
	e := &liveEnv{dir: dir, fs: newCountFS()}
	s := sp.child("synth.generate")
	e.ds = synth.Generate(cfg)
	s.end()

	ls, err := store.OpenLive(dir, store.LiveConfig{
		SealRows:       sealRows,
		CheckpointRows: -1, // checkpoints come from the server's ticker
		Sync:           wal.SyncNone,
		FS:             e.fs,
	})
	if err != nil {
		return nil, fmt.Errorf("open live store: %w", err)
	}
	e.ls = ls
	s = sp.child("store.preload")
	err = preload(ls, e.ds.Store)
	s.end()
	if err != nil {
		ls.Close()
		return nil, err
	}
	if maintain {
		s = sp.child("store.compact")
		ls.Compact(compactMaxRows)
		s.end()
	}
	s = sp.child("store.view")
	ls.View()
	s.end()

	inv := synth.Inventory(cfg)
	e.tables = query.NewTables(inv.Workers, inv.Batches)
	scfg := serve.Config{Store: ls, Tables: e.tables, PlanCacheEntries: planEntries, QueryTimeout: queryTimeout}
	if maintain {
		scfg.CompactEvery, scfg.CompactMaxRows = compactEvery, compactMaxRows
		scfg.CheckpointEvery = checkpointEvery
	}
	e.since = time.Now()
	if e.srv, err = serve.New(scfg); err != nil {
		ls.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Close()
		ls.Close()
		return nil, err
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.url = "http://" + ln.Addr().String()
	e.describe()
	return e, nil
}

// preload appends the generated rows one batch at a time, as ingest
// would have delivered them.
func preload(ls *store.LiveStore, st *store.Store) error {
	bs, tts, items, ws := st.Batches(), st.TaskTypes(), st.Items(), st.Workers()
	ss, es, trs, ans := st.Starts(), st.Ends(), st.Trusts(), st.Answers()
	var rows []model.Instance
	for b := 0; b < st.NumBatches(); b++ {
		lo, hi := st.BatchRange(uint32(b))
		if hi <= lo {
			continue
		}
		rows = rows[:0]
		for i := lo; i < hi; i++ {
			rows = append(rows, model.Instance{Batch: bs[i], TaskType: tts[i], Item: items[i], Worker: ws[i],
				Start: ss[i], End: es[i], Trust: trs[i], Answer: ans[i]})
		}
		if err := ls.Append(rows); err != nil {
			return fmt.Errorf("preload batch %d: %w", b, err)
		}
	}
	return nil
}

// describe records the store's shape at the start and the facts the
// load generators draw their requests from.
func (e *liveEnv) describe() {
	e.startRows, e.startSegments = e.ls.Rows(), e.ls.SealedSegments()
	st := e.ds.Store
	for _, s := range st.Starts() {
		e.maxStart = max(e.maxStart, s)
	}
	e.maxWeek = model.WeekOfUnix(e.maxStart)
	// Walk back from the last batch to windows of windowRows rows each,
	// so dashboard work does not follow batch sizes.
	end := uint32(st.NumBatches())
	for len(e.windows) < dashWindows && end > 0 {
		b, rows := end, 0
		for b > 0 && rows < windowRows {
			b--
			lo, hi := st.BatchRange(b)
			rows += hi - lo
		}
		e.windows = append(e.windows, [2]uint32{b, end})
		end = b
	}
	for _, w := range e.ds.Workers {
		e.workerIDs = append(e.workerIDs, w.ID)
	}
	e.taskTypes = len(e.ds.TaskTypes)
}

// stopServer drains the HTTP server and the serve.Server (whose Close
// takes a final checkpoint), leaving the store open. It is idempotent.
func (e *liveEnv) stopServer() error {
	if e.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := e.srv.Close(); err == nil {
		err = cerr
	}
	e.hs = nil
	return err
}

// close stops the server, closes the store and removes its directory.
func (e *liveEnv) close() error {
	err := e.stopServer()
	if cerr := e.ls.Close(); err == nil {
		err = cerr
	}
	os.RemoveAll(e.dir)
	return err
}

// setupTimed sets up setupRepeats times, tearing down all but the last,
// and returns the last with the median set-up time.
func setupTimed(opt options, maintain bool) (*liveEnv, float64, error) {
	var times []float64
	var e *liveEnv
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, 0, err
			}
			e = nil
		}
		runtime.GC()
		t := time.Now()
		var err error
		e, err = setupLive(filepath.Join(opt.work, fmt.Sprintf("live-%d", i)), opt.gen, maintain, nil)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return e, median(times), nil
}

// stamp records the store's configuration and shape at the start.
func (e *liveEnv) stamp(rep *report) {
	rep.stamp["wal_flush"] = "none"
	rep.stamp["seal_rows"] = sealRows
	rep.stamp["rows_at_start"] = e.startRows
	rep.stamp["segments_at_start"] = e.startSegments
}

// heapPerRow releases the benchmark's own copy of the rows, forces a GC
// and returns heap in use per store row.
func (e *liveEnv) heapPerRow() float64 {
	e.ds = nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / float64(e.ls.Rows())
}

// ingestFeed makes live-dashboard's ingest requests: rows for new batches
// that continue the log in time, drawn from the seed.
type ingestFeed struct {
	e    *liveEnv
	seed uint64
}

// rows returns request k's rows. Batch IDs are left zero: under
// auto_batch the server (or the traced run) assigns them.
func (f ingestFeed) rows(k int) []model.Instance {
	const n = ingestRows
	h := splitmix(f.seed ^ 0x1f0e5 + uint64(k)*0x9e37)
	next := func(m uint64) uint64 {
		h = splitmix(h)
		return h % m
	}
	out := make([]model.Instance, n)
	base := f.e.maxStart + int64(k)*5
	for i := range out {
		start := base + int64(i)
		out[i] = model.Instance{
			TaskType: uint32(next(uint64(f.e.taskTypes))),
			Item:     uint32(next(100)),
			Worker:   f.e.workerIDs[next(uint64(len(f.e.workerIDs)))],
			Start:    start,
			End:      start + 30 + int64(next(600)),
			Trust:    float32(500+next(500)) / 1000,
			Answer:   uint32(next(4)),
		}
	}
	return out
}

// body renders request k as an /ingest auto_batch body.
func (f ingestFeed) body(k int) []byte {
	type row struct {
		TaskType uint32  `json:"tasktype"`
		Item     uint32  `json:"item"`
		Worker   uint32  `json:"worker"`
		Start    int64   `json:"start"`
		End      int64   `json:"end"`
		Trust    float32 `json:"trust"`
		Answer   uint32  `json:"answer"`
	}
	rs := f.rows(k)
	req := struct {
		Rows      []row `json:"rows"`
		AutoBatch bool  `json:"auto_batch"`
	}{make([]row, len(rs)), true}
	for i, r := range rs {
		req.Rows[i] = row{r.TaskType, r.Item, r.Worker, r.Start, r.End, r.Trust, r.Answer}
	}
	b, _ := json.Marshal(req) // plain structs of numbers always marshal
	return b
}

// loadStart returns when live-dashboard's load begins: half a
// maintenance period after the tickers started, so every period-long
// window of the run holds exactly one compaction and one checkpoint, and
// none falls at its end while the run is checked and measured.
func loadStart(tickersSince time.Time) time.Time {
	t := tickersSince.Add(compactEvery / 2)
	if now := time.Now().Add(10 * time.Millisecond); now.After(t) {
		return now
	}
	return t
}
