package main

import (
	"fmt"
	"sync"
	"time"
)

const (
	// live-dashboard: one connection queries, the other ingests.
	dashQueryRate  = 500 // /query per second
	dashIngestRate = 200 // /ingest per second
	ingestRows     = 50  // rows per /ingest

	// analyst-scan: both connections query, at about a quarter of the
	// measured capacity, so queueing barely amplifies service time.
	analystRate  = 40 // /query per second over both connections
	analystConns = 2
	// analystLimit is the latency limit of the capacity ladder, above the
	// fixed rate's tail so that the ladder finds the knee.
	analystLimit = 150 * time.Millisecond
	rungLength   = 1500 * time.Millisecond
)

// ladder is analyst-scan's fixed ladder of offered rates (queries/s).
var ladder = []float64{40, 80, 120, 160, 200, 240, 280}

func seconds(n int) time.Duration { return time.Duration(n) * time.Second }

// dashResult is one live-dashboard load phase.
type dashResult struct {
	queries, ingests []sample
	acked            int64
	firstErr         error
}

// dashboardHTTP drives the server for d: /query at dashQueryRate on one
// connection, /ingest at dashIngestRate on the other.
func (e *liveEnv) dashboardHTTP(seed uint64, d time.Duration) *dashResult {
	texts := dashboardTexts(e.windows)
	feed := ingestFeed{e: e, seed: seed}
	qc, ic := newClient(e.url), newClient(e.url)
	defer qc.close()
	defer ic.close()
	res := &dashResult{}
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		if res.firstErr == nil {
			res.firstErr = err
		}
		mu.Unlock()
	}
	t0 := loadStart(e.since)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		body := feed.body(0)
		sch := schedule{Start: t0, Phase: time.Second / dashQueryRate / 2, Interval: time.Second / dashIngestRate, For: d}
		res.ingests = sch.run(func(k int) bool {
			ack, err := ic.ingest(body)
			if err == nil && ack.Acked != ingestRows {
				err = fmt.Errorf("ingest acked %d of %d rows", ack.Acked, ingestRows)
			}
			if err != nil {
				fail(err)
			} else {
				res.acked += ingestRows
			}
			body = feed.body(k + 1)
			return err == nil
		})
	}()
	sch := schedule{Start: t0, Interval: time.Second / dashQueryRate, For: d}
	res.queries = sch.run(func(k int) bool {
		_, err := qc.query(texts[k%len(texts)], false)
		if err != nil {
			fail(err)
		}
		return err == nil
	})
	wg.Wait()
	return res
}

// checkCount is live-dashboard's answer check: a full count over the
// HTTP path equals the preloaded rows plus every acknowledged row.
func (e *liveEnv) checkCount(acked int64, rep *report) {
	rep.attempted++
	c := newClient(e.url)
	defer c.close()
	r, err := c.query("group tasktype", true)
	if err != nil {
		rep.failed++
		rep.problem("full count: %v", err)
		return
	}
	var n int64
	for _, g := range r.Groups {
		n += g.Count
	}
	if want := int64(e.startRows) + acked; n != want || int64(r.Rows) != want {
		rep.failed++
		rep.problem("full count %d (view rows %d), want %d preloaded + %d acked", n, r.Rows, e.startRows, acked)
	}
}

func runDashboard(opt options, rep *report) error {
	if opt.trace {
		return traceServing(opt, rep, true)
	}
	e, setup, err := setupTimed(opt, true)
	if err != nil {
		return err
	}
	defer e.close()
	e.stamp(rep)
	rep.stamp["query_rate"], rep.stamp["ingest_rate"], rep.stamp["ingest_rows"] = dashQueryRate, dashIngestRate, ingestRows
	rep.set("setup_s", setup, "s")

	io0 := e.fs.counts()
	res := e.dashboardHTTP(opt.seed, seconds(opt.seconds))
	io := e.fs.counts().sub(io0)
	e.checkCount(res.acked, rep)
	if res.firstErr != nil {
		rep.problem("first failed request: %v", res.firstErr)
	}
	qs := summarize(latencies(res.queries))
	is := summarize(latencies(res.ingests))
	rep.attempted += int64(qs.N + is.N)
	rep.failed += int64(qs.Failed + is.Failed)
	rep.setLatency("query", "ms", 1, qs)
	// The gated tail is per maintenance cycle; the pooled one stays as
	// query_p99_ms.
	tail, wins := windowTails(res.queries, compactEvery, seconds(opt.seconds))
	rep.set("query_tail_ms", tail, "ms")
	rep.stamp["query_tail"] = fmt.Sprintf("median over %d windows of %v of each window's p%g (%d samples in the first)",
		len(wins), min(compactEvery, seconds(opt.seconds)), wins[0].TailPct, wins[0].N)
	rep.setLatency("ingest", "ms", 1, is)
	rep.setLatency("loadgen.lag", "ms", 1, summarize(append(lags(res.queries), lags(res.ingests)...), 0))
	rep.set("error_ratio", float64(rep.failed)/float64(rep.attempted), "ratio")
	rep.set("store.checkpoints", float64(io.Ckpts), "count")
	rep.set("wal.bytes_per_row", float64(io.WALBytes)/float64(res.acked), "B/row")
	c := newClient(e.url)
	st, err := c.stats()
	c.close()
	if err != nil {
		return fmt.Errorf("server stats: %w", err)
	}
	rep.set("store.compacted_segments", float64(st.Compacted), "count")
	rep.set("query.plan_hit_ratio", float64(st.PlanCache.Hits)/float64(max(st.PlanCache.Hits+st.PlanCache.Misses, 1)), "ratio")
	rep.set("heap_bytes_per_row", e.heapPerRow(), "B/row")
	return nil
}

// analystCall is one analyst-scan request and what came back.
type analystCall struct {
	q      analystQuery
	groups []groupReply
	err    error
}

// analystHTTP offers analyst queries at rate for d, split evenly over
// analystConns connections; request i of the seed's stream is the i-th
// due after first. It returns the samples, the calls, and the index
// after the last request it could have sent.
func (e *liveEnv) analystHTTP(seed uint64, first int, rate float64, d time.Duration) ([]sample, []analystCall, int) {
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now().Add(10 * time.Millisecond)
	samples := make([][]sample, analystConns)
	calls := make([][]analystCall, analystConns)
	var wg sync.WaitGroup
	for c := 0; c < analystConns; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(e.url)
			defer cl.close()
			sch := schedule{Start: t0, Phase: time.Duration(c) * interval, Interval: analystConns * interval, For: d}
			samples[c] = sch.run(func(k int) bool {
				q := analystRequest(seed, first+c+analystConns*k, e.maxWeek)
				r, err := cl.query(q.Text, true)
				call := analystCall{q: q, err: err}
				if err == nil {
					call.groups = r.Groups
				}
				calls[c] = append(calls[c], call)
				return err == nil
			})
		}()
	}
	wg.Wait()
	var ss []sample
	var cs []analystCall
	most := 0
	for c := range samples {
		ss = append(ss, samples[c]...)
		cs = append(cs, calls[c]...)
		most = max(most, len(samples[c]))
	}
	return ss, cs, first + analystConns*most
}

// checkAnalyst compares every successful reply with the naive reference
// over the generated rows; a wrong answer counts as a failed operation.
func checkAnalyst(cols *naiveCols, calls []analystCall, rep *report) {
	want := naiveAll(cols, calls)
	wrong := 0
	for _, c := range calls {
		if c.err != nil {
			continue
		}
		if diff := compareReply(c.q, c.groups, want[c.q.Text]); diff != "" {
			wrong++
			rep.failed++
			if wrong <= 5 {
				rep.problem("wrong answer to %q: %s", c.q.Text, diff)
			}
		}
	}
	if wrong > 5 {
		rep.problem("%d wrong answers in all", wrong)
	}
}

// naiveAll computes the reference answer of every distinct query text,
// on two goroutines.
func naiveAll(cols *naiveCols, calls []analystCall) map[string][]naiveGroup {
	var todo []analystQuery
	seen := map[string]bool{}
	for _, c := range calls {
		if !seen[c.q.Text] {
			seen[c.q.Text] = true
			todo = append(todo, c.q)
		}
	}
	out := make([][]naiveGroup, len(todo))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(todo); i += workers {
				out[i] = cols.naiveRun(todo[i])
			}
		}()
	}
	wg.Wait()
	m := make(map[string][]naiveGroup, len(todo))
	for i, q := range todo {
		m[q.Text] = out[i]
	}
	return m
}

func runAnalyst(opt options, rep *report) error {
	if opt.trace {
		return traceServing(opt, rep, false)
	}
	e, setup, err := setupTimed(opt, false)
	if err != nil {
		return err
	}
	defer e.close()
	e.stamp(rep)
	rep.stamp["query_rate"] = analystRate
	rep.stamp["latency_limit_ms"] = analystLimit.Seconds() * 1000
	rep.set("setup_s", setup, "s")

	ss, calls, next := e.analystHTTP(opt.seed, 0, analystRate, seconds(opt.seconds))
	qs := summarize(latencies(ss))
	rep.attempted += int64(qs.N)
	rep.failed += int64(qs.Failed)
	rep.setLatency("query", "ms", 1, qs)
	rep.setLatency("loadgen.lag", "ms", 1, summarize(lags(ss), 0))

	capacity := 0.0
	var rungs []string
	for _, rate := range ladder {
		rs, rcalls, n := e.analystHTTP(opt.seed, next, rate, min(rungLength, seconds(opt.seconds)/5))
		next = n
		calls = append(calls, rcalls...)
		s := summarize(latencies(rs))
		rep.attempted += int64(s.N)
		rep.failed += int64(s.Failed)
		grows := backlogGrows(rs, analystConns*time.Duration(float64(time.Second)/rate))
		rungs = append(rungs, fmt.Sprintf("%g/s: p%g %.1f ms over %d, failed %d, backlog grows %v", rate, s.TailPct, finite(s.Tail), s.N, s.Failed, grows))
		if s.Failed > 0 || s.Tail >= float64(analystLimit)/1e6 || grows {
			break
		}
		capacity = rate
	}
	rep.stamp["ladder"] = rungs
	rep.set("capacity_qps", capacity, "1/s")

	cols := newNaiveCols(e.ds)
	checkAnalyst(cols, calls, rep)
	rep.set("error_ratio", float64(rep.failed)/float64(rep.attempted), "ratio")
	rep.set("heap_bytes_per_row", e.heapPerRow(), "B/row")
	return nil
}
