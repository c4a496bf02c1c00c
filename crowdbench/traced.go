package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"crowdscope/internal/query"
	"crowdscope/internal/query/lang"
)

// queryTally accumulates what the traced queries did.
type queryTally struct {
	mu                   sync.Mutex
	n                    int
	scanned, matched     int64
	segments, pruned     int
	exec                 time.Duration
	planHit, planMiss    []time.Duration
	shards, shardsPruned int // dataset queries only
}

func (t *queryTally) add(st query.Stats, exec time.Duration) {
	t.mu.Lock()
	t.n++
	t.scanned += st.RowsScanned
	t.matched += st.RowsMatched
	t.segments += st.Segments
	t.pruned += st.SegmentsPruned
	t.exec += exec
	t.mu.Unlock()
}

// report sets the query-execution metrics every workload shares.
func (t *queryTally) report(rep *report, tr *tracer) {
	rep.set("query.scan_ns_per_row", float64(t.exec)/float64(max(t.scanned, 1)), "ns/row")
	rep.set("query.rows_scanned_per_match", float64(t.scanned)/float64(max(t.matched, 1)), "ratio")
	rep.set("query.segments_pruned_ratio", float64(t.pruned)/float64(max(t.segments, 1)), "ratio")
	rep.setLatency("query.exec", "us", 1000, summarize(tr.durations("query.exec"), 0))
	rep.set("lang.parse_us", p50us(tr.durations("lang.parse")), "us")
	rep.set("query.compile_us", p50us(tr.durations("query.compile")), "us")
}

func p50us(ds []time.Duration) float64 { return summarize(ds, 0).P50 * 1000 }

// directQuery runs one query through the layers the /query handler calls,
// in its order — parse, compile, view, plan (explain), execute — with a
// span around each call.
func (e *liveEnv) directQuery(tr *tracer, pn *query.Planner, req int64, text string, t *queryTally) (*query.Result, *query.Query, error) {
	r := tr.root("request", req)
	defer r.end()
	s := r.child("lang.parse")
	lq, err := lang.Parse(text)
	s.end()
	if err != nil {
		return nil, nil, err
	}
	s = r.child("query.compile")
	q, err := query.Compile(lq)
	s.end()
	if err != nil {
		return nil, nil, err
	}
	if q.NeedsTables() {
		q.Tables = e.tables
	}
	q.Limits.Timeout = queryTimeout
	s = r.child("store.view")
	st := e.ls.View()
	s.end()
	s = r.child("query.plan")
	pl, err := pn.Explain(st, q)
	d := s.end()
	if err != nil {
		return nil, nil, err
	}
	s = r.child("query.exec")
	res, err := pn.RunContext(context.Background(), st, q)
	exec := s.end()
	if err != nil {
		return nil, nil, err
	}
	t.mu.Lock()
	if pl.Cached {
		t.planHit = append(t.planHit, d)
	} else {
		t.planMiss = append(t.planMiss, d)
	}
	t.mu.Unlock()
	t.add(res.Stats, exec)
	return res, &q, nil
}

// replyGroups renders a result as the /query handler does, so the naive
// comparison reads it the same way as a reply.
func replyGroups(q *query.Query, res *query.Result) []groupReply {
	out := make([]groupReply, len(res.Groups))
	for i, g := range res.Groups {
		g := g
		out[i] = groupReply{Key: g.Key, Count: g.Count}
		if len(q.GroupBys) > 1 {
			out[i].Key2 = &g.Key2
		}
		if q.Value != query.ValueNone {
			out[i].Sum, out[i].Min, out[i].Max = &g.Sum, &g.Min, &g.Max
		}
		if q.P50 {
			out[i].P50 = &g.P50
		}
		if q.Distinct != query.ColNone {
			out[i].Distinct = &g.Distinct
		}
	}
	return out
}

// traceServing is the traced run of a serving workload. It sets up once
// with spans around generation and preload, runs the untraced HTTP load
// for the same seconds as the baseline of serve.overhead_p50_us, stops
// the server, and then drives the layers directly on the same schedule
// with a span around every call.
func traceServing(opt options, rep *report, dashboard bool) error {
	tr := newTracer()
	e, err := setupLive(filepath.Join(opt.work, "live"), opt.gen, dashboard, tr)
	if err != nil {
		return err
	}
	defer e.close()
	e.stamp(rep)
	d := seconds(opt.seconds)

	var httpQueries []sample
	var cols *naiveCols
	var calls []analystCall
	if dashboard {
		res := e.dashboardHTTP(opt.seed, d)
		if res.firstErr != nil {
			rep.problem("first failed request: %v", res.firstErr)
		}
		httpQueries = res.queries
		rep.setLatency("loadgen.lag", "ms", 1, summarize(append(lags(res.queries), lags(res.ingests)...), 0))
		rep.attempted += int64(len(res.ingests))
		rep.failed += int64(summarize(latencies(res.ingests)).Failed)
		e.checkCount(res.acked, rep)
	} else {
		cols = newNaiveCols(e.ds)
		httpQueries, calls, _ = e.analystHTTP(opt.seed, 0, analystRate, d)
		rep.setLatency("loadgen.lag", "ms", 1, summarize(lags(httpQueries), 0))
	}
	hq := summarize(latencies(httpQueries))
	rep.attempted += int64(hq.N)
	rep.failed += int64(hq.Failed)
	if err := e.stopServer(); err != nil {
		return err
	}

	pn := query.NewPlanner(planEntries)
	tally := &queryTally{}
	var seals, ingested int64
	var directFailed int64
	var failMu sync.Mutex
	fail := func(err error) {
		failMu.Lock()
		directFailed++
		if directFailed == 1 {
			rep.problem("traced call failed: %v", err)
		}
		failMu.Unlock()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	io0, vs0 := e.fs.counts(), e.ls.ViewStats()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	compacted := 0
	t0 := time.Now().Add(10 * time.Millisecond)
	if dashboard {
		t0 = loadStart(time.Now())
		wg.Add(1)
		go func() {
			defer wg.Done()
			compacted = e.maintain(tr, stop, fail)
		}()
	}
	var direct [][]sample
	var dmu sync.Mutex
	var qwg sync.WaitGroup
	loop := func(sch schedule, do func(k int) bool) {
		defer qwg.Done()
		ss := sch.run(do)
		dmu.Lock()
		direct = append(direct, ss)
		dmu.Unlock()
	}
	if dashboard {
		texts := dashboardTexts(e.windows)
		feed := ingestFeed{e: e, seed: opt.seed}
		qwg.Add(2)
		go loop(schedule{Start: t0, Interval: time.Second / dashQueryRate, For: d}, func(k int) bool {
			_, _, err := e.directQuery(tr, pn, int64(2*k+1), texts[k%len(texts)], tally)
			if err != nil {
				fail(err)
			}
			return err == nil
		})
		go loop(schedule{Start: t0, Phase: time.Second / dashQueryRate / 2, Interval: time.Second / dashIngestRate, For: d}, func(k int) bool {
			rows := feed.rows(k)
			r := tr.root("ingest", int64(2*k+2))
			defer r.end()
			s := r.child("store.next_batch")
			b := e.ls.NextBatch()
			s.end()
			for i := range rows {
				rows[i].Batch = b
			}
			before := e.ls.SealedSegments()
			s = r.child("store.append")
			err := e.ls.Append(rows)
			s.end()
			if err != nil {
				fail(err)
				return false
			}
			if e.ls.SealedSegments() > before {
				seals++
			}
			ingested += int64(len(rows))
			return true
		})
	} else {
		interval := time.Second / analystRate
		var cmu sync.Mutex
		for c := 0; c < analystConns; c++ {
			c := c
			qwg.Add(1)
			go loop(schedule{Start: t0, Phase: time.Duration(c) * interval, Interval: analystConns * interval, For: d}, func(k int) bool {
				i := c + analystConns*k
				aq := analystRequest(opt.seed, i, e.maxWeek)
				res, q, err := e.directQuery(tr, pn, int64(i+1), aq.Text, tally)
				if err != nil {
					fail(err)
					return false
				}
				cmu.Lock()
				calls = append(calls, analystCall{q: aq, groups: replyGroups(q, res)})
				cmu.Unlock()
				return true
			})
		}
	}
	qwg.Wait()
	close(stop)
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	io, vs := e.fs.counts().sub(io0), e.ls.ViewStats()
	for _, ss := range direct {
		rep.attempted += int64(len(ss))
	}
	rep.failed += directFailed

	reqs := summarize(tr.durations("request"), 0)
	rep.set("serve.overhead_p50_us", (hq.P50-reqs.P50)*1000, "us")
	tally.report(rep, tr)
	rep.set("query.plan_hit_us", summarize(tally.planHit, 0).P50*1000, "us")
	rep.set("query.plan_miss_us", summarize(tally.planMiss, 0).P50*1000, "us")
	// The ratio counts each request's first lookup (the explain); the run
	// that follows always hits the plan the explain cached.
	hits, misses := len(tally.planHit), len(tally.planMiss)
	rep.set("query.plan_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	rep.setLatency("store.view", "us", 1000, summarize(tr.durations("store.view"), 0))
	rep.set("store.preload_s", sum(tr.durations("store.preload")).Seconds(), "s")
	rep.set("synth.generate_s", sum(tr.durations("synth.generate")).Seconds(), "s")
	rep.set("runtime.alloc_bytes_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(max(tally.n, 1)), "B/query")
	if dashboard {
		rep.setLatency("store.append", "us", 1000, summarize(tr.durations("store.append"), 0))
		rep.set("store.seals", float64(seals), "count")
		rep.set("store.view_copied_rows_per_ingested_row", float64(vs.CopiedRows-vs0.CopiedRows)/float64(max(ingested, 1)), "rows/row")
		rep.set("store.compact_ms", summarize(tr.durations("store.compact"), 0).P50, "ms")
		rep.set("store.compacted_segments", float64(compacted), "count")
		rep.set("store.checkpoint_ms", summarize(tr.durations("store.checkpoint"), 0).P50, "ms")
		rep.set("store.checkpoints", float64(io.Ckpts), "count")
		rows := float64(max(ingested, 1))
		rep.set("wal.bytes_per_row", float64(io.WALBytes)/rows, "B/row")
		rep.set("vfs.write_bytes_per_row", float64(io.WALBytes+io.CkptBytes)/rows, "B/row")
		rep.set("vfs.writes", float64(io.Writes), "count")
		rep.set("vfs.fsyncs", float64(io.Fsyncs), "count")
		rep.set("vfs.fsync_ms", io.Fsync.Seconds()*1000, "ms")
	} else {
		checkAnalyst(cols, calls, rep)
	}
	return writeSpans(tr, opt, rep)
}

// maintain runs compaction and checkpoints on the server's periods until
// stop closes, with a span around each call, and returns the segments
// compaction merged away.
func (e *liveEnv) maintain(tr *tracer, stop <-chan struct{}, fail func(error)) int {
	compact := time.NewTicker(compactEvery)
	defer compact.Stop()
	ckpt := time.NewTicker(checkpointEvery)
	defer ckpt.Stop()
	merged := 0
	for {
		select {
		case <-stop:
			return merged
		case <-compact.C:
			s := tr.root("store.compact", 0)
			merged += e.ls.Compact(compactMaxRows)
			s.end()
		case <-ckpt.C:
			s := tr.root("store.checkpoint", 0)
			err := e.ls.Checkpoint()
			s.end()
			if err != nil {
				fail(err)
			}
		}
	}
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// writeSpans writes the run's spans under .bench_build/spans and names
// the file in the stamp.
func writeSpans(tr *tracer, opt options, rep *report) error {
	dir := filepath.Join(workRoot, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.stamp["spans"] = path
	return nil
}
