package main

import (
	"net/http"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileTail(t *testing.T) {
	for _, tc := range []struct {
		n          int
		q          float64
		want       float64
		beyond     int
		tailIsReal bool
	}{
		{n: 1000, q: 0.99, want: 990, beyond: 10, tailIsReal: true},
		{n: 2000, q: 0.99, want: 1980, beyond: 20, tailIsReal: true},
		{n: p99Window, q: 0.99, want: 9900, beyond: 100, tailIsReal: true},
		{n: 999, q: 0.99, want: 990, beyond: 9},
		{n: 100, q: 0.99, want: 99, beyond: 1},
		{n: 48, q: 0.99, want: 48, beyond: 0},
		{n: 10, q: 0.5, want: 5, beyond: 5},
		{n: 1, q: 0.99, want: 1, beyond: 0},
	} {
		got, beyond := percentile(seq(tc.n), tc.q)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("n=%d q=%v: got (%v, %d), want (%v, %d)", tc.n, tc.q, got, beyond, tc.want, tc.beyond)
		}
		if (beyond >= minBeyond) != tc.tailIsReal {
			t.Errorf("n=%d q=%v: %d beyond, measured=%t, want %t", tc.n, tc.q, beyond, beyond >= minBeyond, tc.tailIsReal)
		}
	}
	if v, b := percentile(nil, 0.99); v != 0 || b != 0 {
		t.Errorf("empty: got (%v, %d)", v, b)
	}
}

func TestSummarize(t *testing.T) {
	st := summarize(seq(1000), 0.99, "ms")
	if st.Value != 990 || st.Median != 500 || st.Q1 != 250 || st.Q3 != 750 || st.N != 1000 || st.Beyond != 10 {
		t.Errorf("p99 of 1..1000: %+v", st)
	}
	if st := summarize(seq(5), 0.5, "s"); st.Value != 3 || st.Beyond != 0 {
		t.Errorf("median of 1..5: %+v", st)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	for _, tc := range []struct {
		name     string
		lo, hi   int64
		children []interval
		want     int64
	}{
		{"no children", 0, 100, nil, 100},
		{"disjoint", 0, 100, []interval{{10, 20}, {30, 50}}, 70},
		// Two workers running cells at once: the overlap counts once.
		{"overlapping", 0, 100, []interval{{10, 60}, {40, 90}}, 20},
		{"nested", 0, 100, []interval{{10, 90}, {20, 30}}, 20},
		{"unsorted", 0, 100, []interval{{70, 80}, {10, 20}, {15, 25}}, 75},
		{"sticking out", 10, 100, []interval{{0, 20}, {90, 120}}, 70},
		{"covering", 10, 20, []interval{{0, 30}, {5, 25}}, 0},
		{"outside", 10, 20, []interval{{30, 40}}, 10},
		{"unfinished span", 10, 5, []interval{{6, 8}}, 0},
	} {
		got := selfTime(tc.lo, tc.hi, tc.children)
		if got != tc.want {
			t.Errorf("%s: self = %d, want %d", tc.name, got, tc.want)
		}
		if got < 0 {
			t.Errorf("%s: negative self time %d", tc.name, got)
		}
	}
}

func TestSpanIndexSelf(t *testing.T) {
	tr := newTracer()
	root := tr.begin("grid.execute", 1, 0)
	a := tr.begin("grid.cell", 2, root)
	b := tr.begin("grid.cell", 3, root)
	w := tr.begin("obs.write", 2, a)
	tr.end(w)
	tr.end(a)
	tr.end(b)
	tr.end(root)
	ix := indexSpans(tr.snapshot())
	if ix.open() != 0 {
		t.Fatalf("%d open spans", ix.open())
	}
	for _, s := range ix.spans {
		if self := ix.self(s); self < 0 || self > s.End-s.Start {
			t.Errorf("%s: self %d outside [0, %d]", s.Name, self, s.End-s.Start)
		}
	}
	if n := len(ix.named("grid.cell")); n != 2 {
		t.Errorf("named grid.cell: %d spans, want 2", n)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 1, 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	nilTracer.end(0)
}

func TestFailedFracCountsRefusals(t *testing.T) {
	var tal tally
	outcomes := []struct {
		status int
		state  string
	}{
		{http.StatusAccepted, "done"},
		{http.StatusAccepted, "done"},
		{http.StatusTooManyRequests, ""}, // refused: queue full
		{http.StatusAccepted, "failed"},
		{http.StatusAccepted, "canceled"},
		{http.StatusAccepted, "done"},
		{http.StatusServiceUnavailable, ""},
		{http.StatusAccepted, "done"},
	}
	for _, o := range outcomes {
		tal.attempt(1)
		if jobFailed(o.status, o.state) {
			tal.fail(1, "job")
		}
	}
	if got, want := tal.failedFrac(), 4.0/8; got != want {
		t.Errorf("failed_frac = %v, want %v", got, want)
	}
	tal.violation("stream differs")
	if tal.attempted != 9 || tal.failed != 5 {
		t.Errorf("after a violation: %d/%d, want 5/9", tal.failed, tal.attempted)
	}
	if (&tally{}).failedFrac() != 0 {
		t.Error("empty tally: failed_frac != 0")
	}
}

func TestCanonicalLineDropsWallClock(t *testing.T) {
	a := canonicalLine([]byte(`{"type":"summary","trial":1,"steps":42,"elapsedNs":123}`))
	b := canonicalLine([]byte(`{"elapsedNs":999,"steps":42,"trial":1,"type":"summary"}`))
	if string(a) != string(b) {
		t.Errorf("canonical forms differ:\n%s\n%s", a, b)
	}
	c := canonicalLine([]byte(`{"type":"summary","trial":1,"steps":43,"elapsedNs":123}`))
	if string(a) == string(c) {
		t.Error("a seeded field change was ignored")
	}
}

func TestPlanBlockMix(t *testing.T) {
	a, b := planBlock(7, 1, 3), planBlock(7, 1, 3)
	if len(a) != blockJobs {
		t.Fatalf("block has %d jobs, want %d", len(a), blockJobs)
	}
	counts := map[jobClass]int{}
	for i, pj := range a {
		if string(pj.body) != string(b[i].body) {
			t.Fatalf("job %d differs between two plans of one block", i)
		}
		counts[pj.class]++
		if pj.class == classRepeat {
			if pj.target < 0 || pj.target >= i || a[pj.target].class != classSim || string(a[pj.target].body) != string(pj.body) {
				t.Errorf("repeat %d targets %d", i, pj.target)
			}
		}
	}
	want := map[jobClass]int{classSim: mixSim, classRepeat: mixRepeat, classTraced: mixTraced, classCount: mixCount, classBatch: mixBatch}
	for c, n := range want {
		if counts[c] != n {
			t.Errorf("%s jobs: %d, want %d", classNames[c], counts[c], n)
		}
	}
	if string(planBlock(7, 1, 4)[0].body) == string(a[0].body) {
		t.Error("consecutive blocks start with the same job")
	}
}
