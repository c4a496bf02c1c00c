package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles the tail helper may report, highest
// first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// summary is the latency summary of one set of operations: the median,
// the highest percentile with at least ten samples beyond it, and the
// sample count. Failed operations count as samples that miss every
// limit, so they sit above every successful one.
type summary struct {
	N       int     // samples, failures included
	Failed  int     // failures among them
	P50     float64 // milliseconds
	TailPct float64 // the percentile Tail reports
	Tail    float64 // milliseconds; +Inf when failures reach it
	P99     float64 // milliseconds; set only with at least 1000 samples
	HasP99  bool
}

// summarize builds a summary from successful latencies (in any order)
// and a failure count.
func summarize(lat []time.Duration, failed int) summary {
	ms := make([]float64, 0, len(lat)+failed)
	for _, d := range lat {
		ms = append(ms, float64(d)/1e6)
	}
	for i := 0; i < failed; i++ {
		ms = append(ms, math.Inf(1))
	}
	sort.Float64s(ms)
	s := summary{N: len(ms), Failed: failed}
	if len(ms) == 0 {
		return s
	}
	s.P50 = rank(ms, 50)
	s.TailPct = tailPct(len(ms))
	s.Tail = rank(ms, s.TailPct)
	if len(ms) >= 1000 {
		s.P99, s.HasP99 = rank(ms, 99), true
	}
	return s
}

// windowTails splits samples by due time into the whole windows of
// length w that fit in d, summarizes each, and returns the median of
// their tails with the summaries. A window of live-dashboard is one
// maintenance cycle, so the median is set by a typical cycle's stall
// rather than by the run's few longest stalls, which set a pooled p99.
// A run shorter than one window is one window.
func windowTails(ss []sample, w, d time.Duration) (float64, []summary) {
	n := max(int(d/w), 1)
	if d < w {
		w = d
	}
	lat := make([][]time.Duration, n)
	failed := make([]int, n)
	for _, s := range ss {
		i := int(s.Due / w)
		if i >= n {
			continue
		}
		if s.OK {
			lat[i] = append(lat[i], s.Latency)
		} else {
			failed[i]++
		}
	}
	wins := make([]summary, n)
	tails := make([]float64, n)
	for i := range wins {
		wins[i] = summarize(lat[i], failed[i])
		tails[i] = wins[i].Tail
	}
	return median(tails), wins
}

// tailPct returns the highest percentile on the ladder with at least ten
// of n samples beyond it (the median when none qualifies).
func tailPct(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// rank is the nearest-rank percentile of sorted xs.
func rank(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// finite maps +Inf (a tail reached by failures) to the largest float, so
// the value still encodes as JSON; such a run already reports failures.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// setLatency reports a summary as <prefix>_p50_<unit>, <prefix>_tail_<unit>
// and, when at least 1000 samples support it, <prefix>_p99_<unit>; the
// stamp records which percentile the tail is and over how many samples.
// scale converts milliseconds into the unit.
func (r *report) setLatency(prefix, unit string, scale float64, s summary) {
	r.set(prefix+"_p50_"+unit, s.P50*scale, unit)
	r.set(prefix+"_tail_"+unit, s.Tail*scale, unit)
	if s.HasP99 {
		r.set(prefix+"_p99_"+unit, s.P99*scale, unit)
	}
	r.stamp[prefix+"_tail"] = fmt.Sprintf("p%g of %d samples", s.TailPct, s.N)
}
