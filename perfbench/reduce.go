package main

import (
	"math"
	"net/http"
	"sort"
	"sync"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to count as measured rather than as the maximum.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1)
// and how many samples rank above it. xs is sorted in place. An empty
// input yields (0, 0).
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1], len(xs) - rank
}

// stat is one reported metric with the distribution it came from: the
// reported value plus the median, quartiles and count of the samples
// behind it (for a percentile metric, the samples are the per-unit
// latencies; for a median-of-repetitions metric, the repetitions).
type stat struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Beyond counts samples above a percentile value (for a median of
	// per-window percentiles, the fewest above any window's); omitted
	// for medians and exact counts.
	Beyond int `json:"beyond,omitempty"`
}

// summarize describes samples and reports their q-quantile as the
// metric value (q = 0.5 for a median).
func summarize(samples []float64, q float64, unit string) stat {
	xs := append([]float64(nil), samples...)
	st := stat{Unit: unit, N: len(xs)}
	st.Q1, _ = percentile(xs, 0.25)
	st.Median, _ = percentile(xs, 0.5)
	st.Q3, _ = percentile(xs, 0.75)
	var beyond int
	st.Value, beyond = percentile(xs, q)
	if q > 0.5 {
		st.Beyond = beyond
	}
	return st
}

// exact reports a single measured value (a count, a ratio of counts,
// or a one-shot quantity) as a stat with one sample.
func exact(v float64, unit string) stat {
	return stat{Value: v, Unit: unit, Median: v, Q1: v, Q3: v, N: 1}
}

// interval is a closed-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the union of ivs covers. The
// intervals may overlap each other (two grid workers run cells at
// once) and may stick out of [lo, hi); overlap is counted once.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = math.MinInt64
	for _, iv := range clipped {
		if iv.lo > end {
			total += iv.hi - iv.lo
			end = iv.hi
		} else if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it covered by its
// children. It is never negative.
func selfTime(lo, hi int64, children []interval) int64 {
	if hi <= lo {
		return 0
	}
	return hi - lo - covered(lo, hi, children)
}

// tally counts attempted and failed units. A unit fails when it errs,
// is refused or aborted, or breaks an output check; each broken check
// also keeps its message for the run's diagnostics. It is safe for
// concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
}

// maxProblems bounds the kept messages; the counts stay exact.
const maxProblems = 20

func (t *tally) attempt(n int) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

// fail records n failed units with a reason.
func (t *tally) fail(n int, reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed += n
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, reason)
	}
}

// violation records a broken output check: one failed unit that was
// not otherwise counted as attempted.
func (t *tally) violation(reason string) {
	t.attempt(1)
	t.fail(1, reason)
}

// failedFrac is failed units over attempted units.
func (t *tally) failedFrac() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// jobFailed classifies one service job from its submission status and
// the state in its terminal record: anything but an accepted job that
// ends done is a failure, so a refused (429) submission counts.
func jobFailed(submitStatus int, finalState string) bool {
	return submitStatus != http.StatusAccepted || finalState != "done"
}
