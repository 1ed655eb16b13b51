package main

import (
	"math"
	"sort"
	"time"
)

// pct is one percentile together with the number of samples behind it.
type pct struct {
	P     float64
	Value float64
	N     int
}

// percentile returns the p-th percentile (0 < p < 100) of xs by nearest
// rank, with the sample count. xs is sorted in place. An empty sample
// gives the zero pct.
func percentile(xs []float64, p float64) pct {
	if len(xs) == 0 {
		return pct{P: p}
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p/100*float64(len(xs)))) - 1
	rank = max(0, min(rank, len(xs)-1))
	return pct{P: p, Value: xs[rank], N: len(xs)}
}

// supported reports whether at least ten samples lie beyond the
// percentile, the smallest sample a tail percentile is reported on.
func (q pct) supported() bool {
	return float64(q.N)*(1-q.P/100) >= 10
}

// median of xs (sorted in place); 0 when empty.
func median(xs []float64) float64 {
	return percentile(xs, 50).Value
}

// outcome is what the client saw of one live request.
type outcome struct {
	// ok is set only when the stream passed every correctness check.
	ok     bool
	err    string
	tokens int
	// id is the request ID the server answered with, the trace ID.
	id int64
	// due is when the request was scheduled to be sent; sent when the
	// client actually sent it; first and last when the first and the
	// final token lines arrived.
	due, sent, first, last time.Time
}

// ttft is the time from the due time to the first token.
func (o *outcome) ttft() time.Duration { return o.first.Sub(o.due) }

// tpot is the request's mean gap between tokens, (last - first) / (n - 1).
// A stream with fewer than two tokens has no gap, so no TPOT.
func (o *outcome) tpot() (time.Duration, bool) {
	if !o.ok || o.tokens < 2 {
		return 0, false
	}
	return o.last.Sub(o.first) / time.Duration(o.tokens-1), true
}

// meetsSLO reports whether the request met both latency limits. A failed
// or refused request is a miss; a one-token request has no TPOT, so only
// its TTFT counts.
func (o *outcome) meetsSLO(ttftLimit, tpotLimit time.Duration) bool {
	if !o.ok || o.ttft() > ttftLimit {
		return false
	}
	gap, has := o.tpot()
	return !has || gap <= tpotLimit
}

// span is one timed call recorded by the traced run. Spans of one request
// share Trace, the request ID.
type span struct {
	Trace int64     `json:"trace"`
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// selfTime is the parent's length minus the part of it that the children
// cover. Overlapping children are counted once: the union of their
// intervals, clipped to the parent, is subtracted, not their sum.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			covered += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return parent.dur() - covered
}
