package main

import (
	"sort"
	"time"
)

// sample is one open-loop operation. An operation that fell due while
// its connection was still busy with an earlier one is timed from its
// due time, so a stall is charged to every operation queued behind it.
// One whose connection was free is timed from its send: the generator's
// own timer overshoots by 0.1-0.9 ms on a 2-CPU host, and that error is
// not the server's. Lag is how late the generator sent, whatever the
// cause.
type sample struct {
	Due     time.Duration // since the schedule's start
	Latency time.Duration
	Lag     time.Duration
	OK      bool
}

// schedule is one connection's share of an open loop: operation k is due
// at Start + Phase + k*Interval, for every due time before Start + For.
type schedule struct {
	Start    time.Time
	Phase    time.Duration
	Interval time.Duration
	For      time.Duration
}

// run issues the schedule's operations one at a time, as one client
// connection does, and returns a sample per operation. do performs
// operation k and reports whether it succeeded. A generator that falls so
// far behind that it is still sending after twice the schedule's length
// stops there: every operation not yet sent is recorded as failed, so an
// overloaded run ends on time and still counts what it could not do.
func (s schedule) run(do func(k int) bool) []sample {
	var out []sample
	var prevDone time.Time
	for k := 0; ; k++ {
		due := s.Start.Add(s.Phase + time.Duration(k)*s.Interval)
		if due.Sub(s.Start) >= s.For {
			return out
		}
		if time.Since(s.Start) > 2*s.For {
			out = append(out, sample{Due: due.Sub(s.Start), Latency: time.Since(due), Lag: time.Since(due)})
			continue
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		from := due
		if !prevDone.After(due) {
			from = sent
		}
		ok := do(k)
		prevDone = time.Now()
		out = append(out, sample{Due: due.Sub(s.Start), Latency: prevDone.Sub(from), Lag: sent.Sub(due), OK: ok})
	}
}

// latencies splits samples into successful latencies and a failure
// count, the inputs of summarize.
func latencies(ss []sample) ([]time.Duration, int) {
	lat := make([]time.Duration, 0, len(ss))
	failed := 0
	for _, s := range ss {
		if s.OK {
			lat = append(lat, s.Latency)
		} else {
			failed++
		}
	}
	return lat, failed
}

// lags returns every sample's send lag.
func lags(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.Lag
	}
	return out
}

// backlogGrows reports whether the generator fell further behind over the
// run: the median send lag of the last quarter of operations (by due
// time) exceeds that of the first quarter by more than one interval.
func backlogGrows(ss []sample, interval time.Duration) bool {
	if len(ss) < 8 {
		return false
	}
	sorted := append([]sample(nil), ss...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Due < sorted[j].Due })
	q := len(sorted) / 4
	return medianLag(sorted[len(sorted)-q:]) > medianLag(sorted[:q])+interval
}

func medianLag(ss []sample) time.Duration {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(s.Lag)
	}
	return time.Duration(median(xs))
}
