package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"crowdscope/internal/core"
	"crowdscope/internal/experiments"
	"crowdscope/internal/query"
	"crowdscope/internal/query/lang"
	"crowdscope/internal/store"
	"crowdscope/internal/synth"
)

const (
	reproShards = 8
	reproTool   = "crowdbench"
)

// reproEnv is one set-up repro-batch: the generated rows and the 8-shard
// dataset written from them, as `crowdgen -shards 8` leaves it.
type reproEnv struct {
	cfg      synth.Config
	ds       *synth.Dataset
	manifest string
	bytes    int64
}

// setupRepro generates cfg's rows and writes them as a sharded dataset
// under dir (crowdgen's work).
func setupRepro(dir string, cfg synth.Config, tr *tracer) (*reproEnv, error) {
	sp := tr.root("crowdgen", 0)
	defer sp.end()
	e := &reproEnv{cfg: cfg}
	s := sp.child("synth.generate")
	e.ds = synth.Generate(e.cfg)
	s.end()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e.manifest = filepath.Join(dir, "bench.crow")
	s = sp.child("store.dataset_write")
	defer s.end()
	f, err := os.Create(e.manifest)
	if err != nil {
		return nil, err
	}
	prov := &store.Provenance{ConfigHash: cfg.Hash(), Seed: cfg.Seed, Tool: reproTool}
	man, err := e.ds.Store.WriteDataset(f, reproShards, "bench", func(name string) (io.WriteCloser, error) {
		return os.Create(filepath.Join(dir, name))
	}, store.WriteOptions{Provenance: prov})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("write dataset: %w", err)
	}
	e.bytes = man.TotalBytes()
	return e, nil
}

// datasetQuery is one crowdquery invocation: parse and compile the text,
// open the dataset through its manifest, run the query over the shards.
func (e *reproEnv) datasetQuery(tr *tracer, req int64, text string, tables *query.SideTables, t *queryTally) (*query.Result, error) {
	r := tr.root("crowdquery", req)
	defer r.end()
	s := r.child("lang.parse")
	lq, err := lang.Parse(text)
	s.end()
	if err != nil {
		return nil, err
	}
	s = r.child("query.compile")
	q, err := query.Compile(lq)
	s.end()
	if err != nil {
		return nil, err
	}
	if q.NeedsTables() {
		q.Tables = tables
	}
	s = r.child("store.dataset_open")
	d, err := store.OpenDatasetPath(e.manifest)
	s.end()
	if err != nil {
		return nil, err
	}
	defer d.Close()
	s = r.child("query.exec")
	res, err := query.RunDatasetContext(context.Background(), d, q, query.DatasetOptions{})
	exec := s.end()
	if err != nil {
		return nil, err
	}
	if t != nil {
		t.add(res.Stats, exec)
		t.mu.Lock()
		t.shards += res.Stats.ShardsOpened + res.Stats.ShardsPruned + res.Stats.ShardsSkipped
		t.shardsPruned += res.Stats.ShardsPruned
		t.mu.Unlock()
	}
	return res, nil
}

// crowdrepro loads the dataset, assembles the analysis and runs every
// experiment, as `crowdrepro -snapshot` does over a dataset.
func (e *reproEnv) crowdrepro(tr *tracer) (*core.Analysis, error) {
	r := tr.root("crowdrepro", 0)
	defer r.end()
	s := r.child("store.dataset_load")
	d, err := store.OpenDatasetPath(e.manifest)
	if err != nil {
		return nil, err
	}
	st, drep, err := d.LoadStore(store.LoadOptions{})
	d.Close()
	s.end()
	if err != nil {
		return nil, fmt.Errorf("load dataset: %w", err)
	}
	s = r.child("core.analysis")
	a, err := core.FromSnapshot(e.cfg, st, drep.Provenance, core.DefaultOptions())
	s.end()
	if err != nil {
		return nil, err
	}
	s = r.child("experiments.run")
	ctx := experiments.NewContext(a)
	for _, ex := range experiments.All() {
		c := s.child("experiments." + ex.ID)
		ex.Run(ctx)
		c.end()
	}
	s.end()
	return a, nil
}

func runRepro(opt options, rep *report) error {
	tr := (*tracer)(nil)
	if opt.trace {
		tr = newTracer()
	}
	var e *reproEnv
	var setups []float64
	n := setupRepeats
	if opt.trace {
		n = 1
	}
	for i := 0; i < n; i++ {
		if e != nil {
			os.RemoveAll(filepath.Dir(e.manifest))
			e = nil
		}
		runtime.GC()
		t := time.Now()
		var err error
		if e, err = setupRepro(filepath.Join(opt.work, fmt.Sprintf("dataset-%d", i)), opt.gen, tr); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	rows := e.ds.Store.Len()
	rep.stamp["shards"] = reproShards
	rep.stamp["rows_at_start"] = rows
	rep.stamp["segments_at_start"] = len(e.ds.Store.Segments())
	rep.set("setup_s", median(setups), "s")
	rep.set("crowdgen_s", median(setups), "s")

	inv := synth.Inventory(e.cfg)
	tables := query.NewTables(inv.Workers, inv.Batches)
	tally := &queryTally{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// crowdquery: the fixed query set, pass after pass, for the measured
	// seconds (closed loop: one query at a time).
	first := make([]*query.Result, len(reproTexts))
	var lat []time.Duration
	failed := 0
	deadline := time.Now().Add(seconds(opt.seconds))
	for k := 0; time.Now().Before(deadline) || k < len(reproTexts); k++ {
		i := k % len(reproTexts)
		t := time.Now()
		res, err := e.datasetQuery(tr, int64(k+1), reproTexts[i], tables, tally)
		d := time.Since(t)
		rep.attempted++
		switch {
		case err != nil:
			failed++
			rep.problem("dataset query %q: %v", reproTexts[i], err)
		case first[i] == nil:
			first[i] = res
			lat = append(lat, d)
		case !sameGroups(first[i].Groups, res.Groups):
			failed++
			rep.problem("dataset query %q answered differently on a later pass", reproTexts[i])
		default:
			lat = append(lat, d)
		}
	}
	runtime.ReadMemStats(&ms1)
	rep.failed += int64(failed)
	qs := summarize(lat, failed)
	rep.setLatency("query", "ms", 1, qs)
	rep.set("crowdquery_p50_ms", qs.P50, "ms")

	t := time.Now()
	a, err := e.crowdrepro(tr)
	if err != nil {
		return err
	}
	rep.set("crowdrepro_s", time.Since(t).Seconds(), "s")
	rep.attempted++

	// Checks: every dataset answer equals the in-memory engine over the
	// generated store, and the analysis rebuilt from the dataset finds the
	// clusters the in-memory analysis finds.
	for i, text := range reproTexts {
		q, err := query.ParseQuery(text)
		if err != nil {
			return err
		}
		if q.NeedsTables() {
			q.Tables = tables
		}
		want, err := query.Run(e.ds.Store, q)
		if err != nil {
			return err
		}
		if first[i] != nil && !sameGroups(first[i].Groups, want.Groups) {
			rep.failed++
			rep.problem("dataset query %q differs from the in-memory run", text)
		}
	}
	ref := core.New(e.ds, core.DefaultOptions())
	got, want := a.Clustering.NumClusters(), ref.Clustering.NumClusters()
	rep.stamp["clusters"] = got
	if got != want {
		rep.failed++
		rep.problem("analysis from the dataset finds %d clusters, in-memory %d", got, want)
	}
	rep.set("error_ratio", float64(rep.failed)/float64(rep.attempted), "ratio")

	if opt.trace {
		tally.report(rep, tr)
		rep.set("synth.generate_s", sum(tr.durations("synth.generate")).Seconds(), "s")
		rep.set("store.dataset_write_ms", sum(tr.durations("store.dataset_write")).Seconds()*1000, "ms")
		rep.set("store.bytes_per_row", float64(e.bytes)/float64(rows), "B/row")
		rep.set("store.dataset_open_ms", summarize(tr.durations("store.dataset_open"), 0).P50, "ms")
		rep.set("query.dataset_exec_ms", summarize(tr.durations("query.exec"), 0).P50, "ms")
		rep.set("query.shards_pruned_ratio", float64(tally.shardsPruned)/float64(max(tally.shards, 1)), "ratio")
		rep.set("store.dataset_load_ms", sum(tr.durations("store.dataset_load")).Seconds()*1000, "ms")
		rep.set("core.analysis_s", sum(tr.durations("core.analysis")).Seconds(), "s")
		rep.set("experiments.run_s", sum(tr.durations("experiments.run")).Seconds(), "s")
		rep.set("runtime.alloc_bytes_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(max(tally.n, 1)), "B/query")
		if err := writeSpans(tr, opt, rep); err != nil {
			return err
		}
	}
	e.ds, ref = nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.set("heap_bytes_per_row", float64(ms.HeapAlloc)/float64(a.DS.Store.Len()), "B/row")
	runtime.KeepAlive(a)
	return nil
}

// sameGroups reports whether two results agree exactly, float bits
// included.
func sameGroups(a, b []query.Group) bool {
	if len(a) != len(b) {
		return false
	}
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		x, y := a[i], b[i]
		if x.Key != y.Key || x.Key2 != y.Key2 || x.Count != y.Count || x.Distinct != y.Distinct ||
			!eq(x.Sum, y.Sum) || !eq(x.Min, y.Min) || !eq(x.Max, y.Max) || !eq(x.P50, y.P50) {
			return false
		}
	}
	return true
}
