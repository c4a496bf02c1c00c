package main

import (
	"fmt"
	"math"
	"strconv"

	"crowdscope/internal/model"
	"crowdscope/internal/synth"
)

// dashboardTexts are live-dashboard's fixed queries: eight small
// group-bys over each of the newest preloaded windows (windowRows rows
// each), so zone maps prune all but one or two segments and every
// request stays cheap. Several windows average out how one seed's newest
// batches happen to look. The windows end where the preload ends; rows
// ingested during the run fall outside them, so a query's cost does not
// grow with the run. Their literals are fixed, so each text hits the
// plan cache until the sealed segment set changes.
func dashboardTexts(windows [][2]uint32) []string {
	var out []string
	for _, w := range windows {
		b, end := w[0], w[1]
		out = append(out,
			fmt.Sprintf("where batch in [%d, %d) | group tasktype | value duration", b, end),
			fmt.Sprintf("where batch in [%d, %d) | group day", b, end),
			fmt.Sprintf("where batch in [%d, %d) | group day | value duration | p50", b, end),
			fmt.Sprintf("where batch in [%d, %d) and trust >= 0.9 | group tasktype", b, end),
			fmt.Sprintf("where batch in [%d, %d) | group week | distinct worker", b, end),
			fmt.Sprintf("where batch in [%d, %d) and duration >= 300 | group tasktype | value duration | p50", b, end),
			fmt.Sprintf("where batch in [%d, %d) | group worker.country", b, end),
			fmt.Sprintf("where batch in [%d, %d) | group worker.class | value trust", b, end),
		)
	}
	return out
}

// reproTexts are repro-batch's dataset queries: pruned windows, full-scan
// group-bys and joins, as an analyst would run them through crowdquery.
var reproTexts = []string{
	"where batch >= 49000 | group tasktype | value duration",
	"where batch in [20000, 20500) | group day",
	"where start in [week:100, week:102) | group day | value duration | p50",
	"where start >= week:200 | group week | distinct worker",
	"where trust >= 0.9 | group week | value duration",
	"where duration >= 300 | group week | value duration | p50",
	"where trust < 0.6 | group week | distinct worker",
	"group week",
	"where tasktype in {1, 2, 3} | group tasktype | value trust",
	"where worker.class == super and (batch.sampled == true or duration >= 600) | group worker.country, worker.class | value trust",
	"where worker.country in {1, 2, 3} | group worker.source | value duration",
	"where batch.week in [100, 110) | group batch.week | value duration",
	"where answer == 1 | group week",
	"where start in [week:50, week:60) and trust >= 0.8 | group week | value trust",
	"where batch < 1000 | group day | value duration | p50",
	"where worker < 100 | group worker | value duration",
	"where duration in [60, 120] | group week",
	"where item < 50 and batch >= 40000 | group tasktype",
	"where start >= week:150 or trust < 0.5 | group week | value duration",
	"group worker.class | value trust | p50",
}

// Analyst-scan templates. Every request draws fresh literals from the
// seed, so almost every text is new to the 128-entry plan cache.
const (
	tmplTrustWeek   = iota // full scan, group week, value duration
	tmplDurationP50        // full scan, group week, p50 of duration
	tmplDistinct           // full scan, group week, distinct worker
	tmplJoinOr             // join + OR-group, two-key group-by, value trust
	tmplWeekWindow         // range-pruned week window, group day, p50
	numTemplates
)

// analystQuery is one analyst-scan request: its text and the literals
// the naive reference needs.
type analystQuery struct {
	Text   string
	Tmpl   int
	Trust  float64 // trust literal, parsed back from Text's own digits
	Dur    int64
	Class  int
	Week   int32
	Weeks  int32
	TrustS string
}

// splitmix is a stateless hash: a seed's streams depend on nothing but
// the seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// kronecker steps, one per literal of a template: irrational, so each
// template's literals fill their ranges evenly in any run.
var kronecker = [3]float64{0.6180339887498949, 0.4142135623730951, 0.7320508075688772}

// analystRequest returns request i of the seed's analyst stream. The
// templates take turns, so every run has the same mix. A template's j-th
// literals are a Kronecker sequence started at a seed-drawn offset: they
// differ from seed to seed but cover their ranges as evenly in every run,
// so the mix's cost does not follow the seed's draws.
func analystRequest(seed uint64, i int, maxWeek int32) analystQuery {
	q := analystQuery{Tmpl: i % numTemplates}
	j := float64(i / numTemplates)
	next := func(d int, n uint64) uint64 {
		off := float64(splitmix(seed*0x100000001b3+uint64(q.Tmpl*3+d))>>11) / (1 << 53)
		u := off + j*kronecker[d]
		return uint64((u - math.Floor(u)) * float64(n))
	}
	switch q.Tmpl {
	case tmplTrustWeek:
		q.TrustS = fmt.Sprintf("0.%03d", 500+next(0, 500))
		q.Text = fmt.Sprintf("where trust >= %s | group week | value duration", q.TrustS)
	case tmplDurationP50:
		q.Dur = int64(next(0, 900))
		q.Text = fmt.Sprintf("where duration >= %d | group week | value duration | p50", q.Dur)
	case tmplDistinct:
		q.TrustS = fmt.Sprintf("0.%03d", 500+next(0, 400))
		q.Text = fmt.Sprintf("where trust < %s | group week | distinct worker", q.TrustS)
	case tmplJoinOr:
		q.TrustS = fmt.Sprintf("0.%03d", 500+next(0, 400))
		q.Class = int(next(1, uint64(model.NumEngagementClasses)))
		q.Dur = 60 + int64(next(2, 840))
		q.Text = fmt.Sprintf("where trust >= %s and (worker.class == %s or duration >= %d) | group worker.country, worker.class | value trust",
			q.TrustS, model.EngagementClass(q.Class), q.Dur)
	case tmplWeekWindow:
		q.Weeks = 1 + int32(next(1, 4))
		q.Week = 1 + int32(next(0, uint64(max(1, maxWeek-q.Weeks))))
		q.Text = fmt.Sprintf("where start in [week:%d, week:%d) | group day | value duration | p50", q.Week, q.Week+q.Weeks)
	}
	if q.TrustS != "" {
		q.Trust, _ = strconv.ParseFloat(q.TrustS, 64)
	}
	return q
}

// naiveCols are the generated rows in the shape the naive reference
// reads: one plain array per column, plus the derived keys.
type naiveCols struct {
	worker       []uint32
	start, dur   []int64
	trust        []float32
	week, day    []int32
	wClass       []int32 // by worker ID
	wCountry     []int32 // by worker ID
	maxWeek      int32
	maxDay       int32
	numCountries int32
}

// newNaiveCols copies the generated rows in batch order, the order
// preload appended them in.
func newNaiveCols(ds *synth.Dataset) *naiveCols {
	st := ds.Store
	c := &naiveCols{}
	ws, ss, es, ts := st.Workers(), st.Starts(), st.Ends(), st.Trusts()
	for b := 0; b < st.NumBatches(); b++ {
		lo, hi := st.BatchRange(uint32(b))
		for i := lo; i < hi; i++ {
			c.worker = append(c.worker, ws[i])
			c.start = append(c.start, ss[i])
			c.trust = append(c.trust, ts[i])
			c.dur = append(c.dur, es[i]-ss[i])
		}
	}
	n := len(c.start)
	c.week, c.day = make([]int32, n), make([]int32, n)
	for i, s := range c.start {
		c.week[i] = model.WeekOfUnix(s)
		c.day[i] = model.DayOfUnix(s)
		c.maxWeek = max(c.maxWeek, c.week[i])
		c.maxDay = max(c.maxDay, c.day[i])
	}
	var maxW uint32
	for _, w := range ds.Workers {
		maxW = max(maxW, w.ID)
	}
	c.wClass = make([]int32, maxW+1)
	c.wCountry = make([]int32, maxW+1)
	for _, w := range ds.Workers {
		c.wClass[w.ID] = int32(w.Class)
		c.wCountry[w.ID] = int32(w.Country)
		c.numCountries = max(c.numCountries, int32(w.Country)+1)
	}
	return c
}

// naiveGroup is one reference group, in the reply's field order.
type naiveGroup struct {
	Key, Key2     int64
	Count         int64
	Sum, Min, Max float64
	P50           float64
	Distinct      int
}

// naiveRun answers q with a plain loop over every row: no zone maps, no
// bitmaps, no plan, no parallelism.
func (c *naiveCols) naiveRun(q analystQuery) []naiveGroup {
	var (
		match func(i int) bool
		key   func(i int) int // dense group index
		k2n   = 1             // second-key range
		keys  int
		value = func(i int) float64 { return float64(c.dur[i]) }
	)
	weekKey := func(i int) int { return int(c.week[i]) }
	switch q.Tmpl {
	case tmplTrustWeek:
		match = func(i int) bool { return float64(c.trust[i]) >= q.Trust }
		key, keys = weekKey, int(c.maxWeek)+1
	case tmplDurationP50:
		match = func(i int) bool { return c.dur[i] >= q.Dur }
		key, keys = weekKey, int(c.maxWeek)+1
	case tmplDistinct:
		match = func(i int) bool { return float64(c.trust[i]) < q.Trust }
		key, keys = weekKey, int(c.maxWeek)+1
	case tmplJoinOr:
		match = func(i int) bool {
			return float64(c.trust[i]) >= q.Trust &&
				(int(c.wClass[c.worker[i]]) == q.Class || c.dur[i] >= q.Dur)
		}
		k2n = model.NumEngagementClasses
		key = func(i int) int {
			w := c.worker[i]
			return int(c.wCountry[w])*k2n + int(c.wClass[w])
		}
		keys = int(c.numCountries) * k2n
		value = func(i int) float64 { return float64(c.trust[i]) }
	case tmplWeekWindow:
		lo, hi := model.DayUnix(q.Week*7), model.DayUnix((q.Week+q.Weeks)*7)
		match = func(i int) bool { return c.start[i] >= lo && c.start[i] < hi }
		key, keys = func(i int) int { return int(c.day[i]) }, int(c.maxDay)+1
	}
	groups := make([]naiveGroup, keys)
	var vals [][]float64
	if q.Tmpl == tmplDurationP50 || q.Tmpl == tmplWeekWindow {
		vals = make([][]float64, keys)
	}
	var distinct []map[uint32]bool
	if q.Tmpl == tmplDistinct {
		distinct = make([]map[uint32]bool, keys)
	}
	for i := range c.start {
		if !match(i) {
			continue
		}
		k := key(i)
		g := &groups[k]
		v := value(i)
		if g.Count == 0 {
			g.Min, g.Max = math.Inf(1), math.Inf(-1)
		}
		g.Count++
		g.Sum += v
		g.Min = math.Min(g.Min, v)
		g.Max = math.Max(g.Max, v)
		if vals != nil {
			vals[k] = append(vals[k], v)
		}
		if distinct != nil {
			if distinct[k] == nil {
				distinct[k] = map[uint32]bool{}
			}
			distinct[k][c.worker[i]] = true
		}
	}
	var out []naiveGroup
	for k := range groups {
		g := groups[k]
		if g.Count == 0 {
			continue
		}
		g.Key, g.Key2 = int64(k/k2n), int64(k%k2n)
		if vals != nil {
			g.P50 = median(vals[k])
		}
		if distinct != nil {
			g.Distinct = len(distinct[k])
		}
		out = append(out, g)
	}
	return out
}

// groupReply mirrors one group of a /query reply.
type groupReply struct {
	Key      int64    `json:"key"`
	Key2     *int64   `json:"key2"`
	Count    int64    `json:"count"`
	Sum      *float64 `json:"sum"`
	Min      *float64 `json:"min"`
	Max      *float64 `json:"max"`
	P50      *float64 `json:"p50"`
	Distinct *int     `json:"distinct"`
}

// compareReply checks a reply's groups against the reference and
// describes the first difference ("" when they agree). Integer values
// compare exactly; trust sums, folded in a different order, to 1e-9.
func compareReply(q analystQuery, got []groupReply, want []naiveGroup) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d groups, want %d", len(got), len(want))
	}
	twoKeys := q.Tmpl == tmplJoinOr
	withValue := q.Tmpl != tmplDistinct
	p50 := q.Tmpl == tmplDurationP50 || q.Tmpl == tmplWeekWindow
	for i, g := range got {
		w := want[i]
		switch {
		case g.Key != w.Key || g.Count != w.Count:
			return fmt.Sprintf("group %d: key %d count %d, want key %d count %d", i, g.Key, g.Count, w.Key, w.Count)
		case twoKeys && (g.Key2 == nil || *g.Key2 != w.Key2):
			return fmt.Sprintf("group %d: second key differs", i)
		case withValue && (g.Sum == nil || g.Min == nil || g.Max == nil):
			return fmt.Sprintf("group %d: value aggregates missing", i)
		case withValue && (!near(*g.Sum, w.Sum) || *g.Min != w.Min || *g.Max != w.Max):
			return fmt.Sprintf("group %d: sum/min/max %g/%g/%g, want %g/%g/%g", i, *g.Sum, *g.Min, *g.Max, w.Sum, w.Min, w.Max)
		case p50 && (g.P50 == nil || *g.P50 != w.P50):
			return fmt.Sprintf("group %d: p50 differs", i)
		case q.Tmpl == tmplDistinct && (g.Distinct == nil || *g.Distinct != w.Distinct):
			return fmt.Sprintf("group %d: distinct differs", i)
		}
	}
	return ""
}

func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
