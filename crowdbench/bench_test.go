package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crowdscope/internal/model"
	"crowdscope/internal/store"
	"crowdscope/internal/wal"
)

func ms(xs ...float64) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = time.Duration(x * 1e6)
	}
	return out
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {100000, 99}} {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i + 1) // 1..1000 ms
	}
	s := summarize(ms(lat...), 0)
	if s.TailPct != 99 || s.Tail != 990 || s.P50 != 500 || !s.HasP99 {
		t.Errorf("summary of 1..1000 ms = %+v", s)
	}
}

// A failed operation misses every limit: it ranks above every success.
func TestFailuresCountAsMisses(t *testing.T) {
	lat := make([]float64, 190)
	for i := range lat {
		lat[i] = 1
	}
	s := summarize(ms(lat...), 10) // 200 samples: the tail is p95
	if s.TailPct != 95 || s.Tail != 1 {
		t.Fatalf("10 failures of 200: tail p%g = %g, want p95 = 1", s.TailPct, s.Tail)
	}
	s = summarize(ms(lat...), 11)
	if !math.IsInf(s.Tail, 1) {
		t.Fatalf("11 failures of 201: tail = %g, want +Inf", s.Tail)
	}
	if s = summarize(nil, 3); !math.IsInf(s.P50, 1) || s.N != 3 {
		t.Fatalf("all failed: %+v", s)
	}
}

// The windowed tail is the median of the windows' tails: one window's
// long stall does not set it, samples past the last whole window are
// dropped, and a failure counts in its own window.
func TestWindowTails(t *testing.T) {
	var ss []sample
	for w := 0; w < 3; w++ {
		for i := 0; i < 100; i++ {
			lat := time.Duration(w+1) * time.Millisecond
			if w == 2 && i < 20 {
				lat = time.Second // a stall in the last window
			}
			ss = append(ss, sample{Due: time.Duration(w)*time.Second + time.Duration(i)*10*time.Millisecond, Latency: lat, OK: true})
		}
	}
	ss = append(ss, sample{Due: 3500 * time.Millisecond, Latency: time.Hour, OK: true}) // past the last whole window
	ss = append(ss, sample{Due: 500 * time.Millisecond})                                // a failure in the first
	tail, wins := windowTails(ss, time.Second, 3500*time.Millisecond)
	if len(wins) != 3 || wins[0].N != 101 || wins[0].Failed != 1 || wins[2].Tail != 1000 {
		t.Fatalf("windows %+v", wins)
	}
	if tail != 2 {
		t.Fatalf("median window tail %g ms, want 2", tail)
	}
	if _, wins = windowTails(ss, time.Second, 500*time.Millisecond); len(wins) != 1 || wins[0].N != 50 {
		t.Fatalf("a run shorter than a window: %+v", wins)
	}
}

// The open-loop timer charges a stall to every request queued behind it:
// a handler that stalls 50 ms on its first request delays the requests
// due during the stall by what remains of it, measured from their due
// times, while requests due after it drains are fast again.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(50 * time.Millisecond)
		}
		w.Write([]byte(`{"rows":0,"groups":[]}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	c.query("warm", false) // the stub's stall is on the first timed request
	calls.Store(0)

	const interval = 5 * time.Millisecond
	ss := schedule{Start: time.Now().Add(5 * time.Millisecond), Interval: interval, For: 40 * interval}.run(func(k int) bool {
		_, err := c.query("q", false)
		return err == nil
	})
	if len(ss) != 40 {
		t.Fatalf("%d samples, want 40", len(ss))
	}
	if ss[0].Latency < 50*time.Millisecond {
		t.Fatalf("stalled request took %v", ss[0].Latency)
	}
	// Requests 1..8 fell due during the stall: each waits for what is
	// left of it, counted from its own due time.
	for k := 1; k <= 8; k++ {
		left := 50*time.Millisecond - time.Duration(k)*interval
		if ss[k].Latency < left-2*time.Millisecond {
			t.Errorf("request %d due %v into the stall took %v, want at least ~%v", k, time.Duration(k)*interval, ss[k].Latency, left)
		}
		if ss[k].Lag < left-2*time.Millisecond {
			t.Errorf("request %d sent only %v late", k, ss[k].Lag)
		}
	}
	if last := ss[len(ss)-1]; last.Latency > 20*time.Millisecond {
		t.Errorf("request due after the backlog drained took %v", last.Latency)
	}
	if backlogGrows(ss, interval) {
		t.Errorf("a single stall that drains reads as a growing backlog")
	}
}

// The counting filesystem's counts are exact: the same single-writer
// schedule writes the same calls, bytes and fsyncs every time.
func TestCountFSRepeatsExactly(t *testing.T) {
	run := func() ioCounts {
		fs := newCountFS()
		ls, err := store.OpenLive(t.TempDir(), store.LiveConfig{SealRows: 64, CheckpointRows: -1, Sync: wal.SyncAlways, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 20; b++ {
			rows := make([]model.Instance, 16)
			for i := range rows {
				rows[i] = model.Instance{Batch: uint32(b), Worker: uint32(i), Start: int64(1000 + b), End: int64(1100 + b), Trust: 0.5}
			}
			if err := ls.Append(rows); err != nil {
				t.Fatal(err)
			}
		}
		if err := ls.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := ls.Close(); err != nil {
			t.Fatal(err)
		}
		c := fs.counts()
		c.Fsync = 0 // time is the one figure that may vary
		return c
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("counts differ between identical runs: %+v vs %+v", a, b)
	}
	if a.WALBytes == 0 || a.CkptBytes == 0 || a.Fsyncs < 20 || a.Ckpts != 1 {
		t.Fatalf("counts miss the writes: %+v", a)
	}
}

// A seconds-long run of every workload, in both modes, prints every
// metric BENCHMARK.json names for that mode, each with its unit. It runs
// the workloads the binary has, not only those BENCHMARK.json lists.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for trace, declared := range [][]struct{ Name, Unit string }{bench.EndToEnd, bench.PerLayer} {
			var out, errb bytes.Buffer
			run([]string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", []string{"0", "1"}[trace]}, &out, &errb)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Attempted int64
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line %q: %v (stderr %s)", name, trace, lines[len(lines)-1], err, errb.String())
			}
			if res.Attempted < 1 || len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%d: %d attempted, %d metrics, want %d", name, trace, res.Attempted, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// A span's self time is its duration minus the union of its children.
func TestSelfTimes(t *testing.T) {
	d := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "request", Start: d(0), End: d(10)},
		{ID: 2, Parent: 1, Start: d(1), End: d(3)},
		{ID: 3, Parent: 1, Start: d(2), End: d(5)},
		{ID: 4, Parent: 1, Start: d(8), End: d(12)},
	}
	self := selfTimes(spans)
	if self[1] != d(4) || self[2] != d(2) || self[4] != d(4) {
		t.Fatalf("self times %v", self)
	}
}
