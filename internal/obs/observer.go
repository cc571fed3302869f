package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/report"
)

// maxTrackedPairs caps the dense per-pair last-seen table; beyond it
// (about 2k agents) pair coverage and fairness-gap gauges are disabled
// rather than spending O(n^2) memory per run.
const maxTrackedPairs = 1 << 22

// ObserverOptions configures an Observer.
type ObserverOptions struct {
	// Sink, when non-nil, receives progress snapshots and the final
	// summary record.
	Sink Sink
	// ProgressEvery emits a progress record every k interactions
	// (0: only the final snapshot emitted by Finish).
	ProgressEvery int
	// Trial tags every emitted record with a batch trial index
	// (0 for single runs).
	Trial int
	// NoPairs disables the per-pair last-seen table regardless of
	// population size. The count engine sets it: count-space runs have
	// no agent identities to track, and at its populations (up to 2³²)
	// even computing the table size would overflow.
	NoPairs bool
}

// Observer accumulates the metrics of one execution: interaction and
// non-null counters, per-rule fire counts, quiet-streak statistics, and
// scheduler pair-coverage/fairness gauges. The engines feed it through
// their Obs fields, one Chunk per stretch of interactions (any other
// driver can use the per-interaction Observe* methods), and it is
// single-writer: only the goroutine driving the run may call its
// mutating methods, and its rule map and pair tracking are unsafe to
// read while the run is live. Batch runs give each trial its own
// Observer sharing one concurrency-safe Sink. The one method safe to
// call from another goroutine during a live run is Snapshot, which
// reads only the atomically maintained counters, as of the last fold.
type Observer struct {
	sink          Sink
	progressEvery uint64
	trial         int
	n             int
	lo, m         int
	start         time.Time
	finished      bool
	// progressAt is the step of the last progress record (MaxUint64:
	// none yet), so Finish does not repeat a periodic one.
	progressAt uint64

	steps   Counter
	nonNull Counter
	quiet   int64
	rules   map[RuleKey]uint64

	// Dense per-rule accounting for the compiled engine: fire counts
	// keyed by the transition-table index initiator*|Q|+responder, with
	// the right-hand sides reconstructed from the table on read, and
	// leader-rule fire counts keyed by the mobile peer's x*|Q|+x'.
	ruleTab     *core.Compiled
	rulesDense  []uint64
	leaderDense []uint64

	quietHist Histogram

	forced int64

	pairTrack bool
	lastSeen  []int64
	pairsSeen int

	// censusCounts, when set by TrackCensus, is the live occupancy
	// vector of a count-engine run; every progress emission is followed
	// by a census record snapshotting it.
	censusCounts []int
}

// NewObserver returns an observer for a population of n mobile agents
// (plus a leader when withLeader is set).
func NewObserver(n int, withLeader bool, opts ObserverOptions) *Observer {
	lo := 0
	if withLeader {
		lo = -1
	}
	m := n - lo
	o := &Observer{
		sink:  opts.Sink,
		trial: opts.Trial,
		n:     n,
		lo:    lo,
		m:     m,
		start: time.Now(),
		rules: make(map[RuleKey]uint64),

		progressAt: math.MaxUint64,
	}
	if opts.ProgressEvery > 0 {
		o.progressEvery = uint64(opts.ProgressEvery)
	}
	// m ≤ 2¹¹ implies m·m ≤ maxTrackedPairs; testing m first keeps the
	// product from overflowing at count-engine populations.
	if !opts.NoPairs && m <= 1<<11 && m*m <= maxTrackedPairs {
		o.pairTrack = true
		o.lastSeen = make([]int64, m*m)
		for i := range o.lastSeen {
			o.lastSeen[i] = -1
		}
	}
	return o
}

// Steps returns the number of observed interactions.
func (o *Observer) Steps() uint64 { return o.steps.Value() }

// NonNull returns the number of observed state-changing interactions.
func (o *Observer) NonNull() uint64 { return o.nonNull.Value() }

// QuietStreaks returns the histogram of completed all-null streak
// lengths (Finish flushes the trailing streak).
func (o *Observer) QuietStreaks() *Histogram { return &o.quietHist }

// ObserverSnapshot is a point-in-time scrape of a live run: the
// atomically maintained counters only. Rule counts, pair coverage and
// fairness gaps are single-writer state and are not included.
type ObserverSnapshot struct {
	// Steps and NonNull are the interaction counters.
	Steps   uint64 `json:"steps"`
	NonNull uint64 `json:"nonNull"`
	// Quiet is the current all-null streak length.
	Quiet int64 `json:"quiet"`
	// QuietStreaks is the completed-streak histogram so far.
	QuietStreaks HistogramSnapshot `json:"quietStreaks"`
}

// Snapshot scrapes the observer's atomic counters. Unlike every other
// Observer method it is safe to call concurrently with the run that is
// feeding the observer — the ppserved /metrics endpoint scrapes live
// jobs through it.
func (o *Observer) Snapshot() ObserverSnapshot {
	return ObserverSnapshot{
		Steps:        o.steps.Value(),
		NonNull:      o.nonNull.Value(),
		Quiet:        atomic.LoadInt64(&o.quiet),
		QuietStreaks: o.quietHist.Snapshot(),
	}
}

// SetForced records the number of interactions a fairness-enforcing
// adversary was forced to schedule, surfaced in the summary record so
// adversarial runs are auditable like scheduler runs. Call it before
// Finish.
func (o *Observer) SetForced(n int64) { o.forced = n }

// CompileRules switches per-rule accounting to dense counter arrays —
// mobile rules keyed by tab's flat table index, leader rules by the
// mobile peer's transition x·|Q|+x' — removing the map operation from
// the hot loop. The engines call it when they install a compiled
// table; RuleCounts merges both representations.
func (o *Observer) CompileRules(tab *core.Compiled) {
	if o.ruleTab == tab {
		return
	}
	o.ruleTab = tab
	o.rulesDense = make([]uint64, tab.States()*tab.States())
	o.leaderDense = nil
	if _, ok := tab.Leader(); ok {
		o.leaderDense = make([]uint64, tab.States()*tab.States())
	}
}

// Chunk is the observer's accounting for a run of consecutive
// interactions. A fused hot loop takes one with Begin, records each
// interaction into it — Pair, then Rule or Fire when the interaction
// changed states, then Step — and folds it back with Fold at the chunk
// end. The interaction, non-null and quiet-streak counters live in the
// chunk until the fold; rule counts, pair last-seen steps and completed
// quiet streaks go straight to the observer. A loop that skips a run
// of null interactions at once records it with Nulls. A chunk must end
// (fold) no later than Room interactions after Begin, so that a
// progress record falls on exactly its step, and nothing else may feed
// the observer while a chunk is open. The per-interaction Observe*
// methods are one-interaction chunks.
type Chunk struct {
	o       *Observer
	steps   uint64
	nonNull uint64
	quiet   int64
	// The observer's tables and pair indexing, copied for the hot loop.
	dense, leader []uint64
	lastSeen      []int64 // nil when pair tracking is disabled
	lo, m, q      int
}

// Begin opens a chunk at the observer's current counters.
func (o *Observer) Begin() Chunk {
	c := Chunk{
		o:       o,
		steps:   o.steps.Value(),
		nonNull: o.nonNull.Value(),
		quiet:   atomic.LoadInt64(&o.quiet),
		dense:   o.rulesDense,
		leader:  o.leaderDense,
		lo:      o.lo,
		m:       o.m,
	}
	if o.ruleTab != nil {
		c.q = o.ruleTab.States()
	}
	if o.pairTrack {
		c.lastSeen = o.lastSeen
	}
	return c
}

// Room returns how many interactions, at most max, the chunk may
// record before it must fold: up to the next progress boundary when
// the observer journals periodic progress, max otherwise.
func (c *Chunk) Room(max int) int {
	k := c.o.progressEvery
	if k == 0 || c.o.sink == nil {
		return max
	}
	if r := k - c.steps%k; r < uint64(max) {
		return int(r)
	}
	return max
}

// Pair records that p interacts at the current step (pair coverage and
// fairness gap). Call it before Step.
func (c *Chunk) Pair(p core.Pair) {
	if c.lastSeen == nil {
		return
	}
	idx := (p.A-c.lo)*c.m + (p.B - c.lo)
	if idx >= 0 && idx < len(c.lastSeen) {
		if c.lastSeen[idx] < 0 {
			c.o.pairsSeen++
		}
		c.lastSeen[idx] = int64(c.steps)
	}
}

// Rule records a firing of the mobile rule at compiled-table index idx
// (x·|Q|+y). It requires CompileRules to have installed the table.
func (c *Chunk) Rule(idx int) { c.dense[idx]++ }

// LeaderRule records a firing of a leader rule that moved its mobile
// peer from x to x2 (x2 == x when only the leader changed). It
// requires CompileRules to have installed the table.
func (c *Chunk) LeaderRule(x, x2 core.State) { c.leader[int(x)*c.q+int(x2)]++ }

// Fire records a firing of a map-keyed rule, when no compiled table is
// installed.
func (c *Chunk) Fire(k RuleKey) { c.o.rules[k]++ }

// Nulls advances the interaction counters and the quiet streak by k
// null interactions.
func (c *Chunk) Nulls(k int) {
	c.steps += uint64(k)
	c.quiet += int64(k)
}

// Step advances the interaction counters and the quiet streak,
// recording a completed streak when a non-null interaction ends it.
func (c *Chunk) Step(changed bool) {
	c.steps++
	if !changed {
		c.quiet++
		return
	}
	c.nonNull++
	if c.quiet > 0 {
		c.endStreak()
	}
}

// endStreak records the completed quiet streak. It is kept out of line
// so that Step stays within the inlining budget of the hot loops.
//
//go:noinline
func (c *Chunk) endStreak() {
	c.o.quietHist.Observe(c.quiet)
	c.quiet = 0
}

// Fold closes the chunk: it publishes the counters to the observer
// (atomically, for Snapshot) and emits the periodic progress record
// when the chunk ended on a progress boundary.
func (c *Chunk) Fold() {
	o := c.o
	o.steps.store(c.steps)
	o.nonNull.store(c.nonNull)
	atomic.StoreInt64(&o.quiet, c.quiet)
	if o.progressEvery > 0 && o.sink != nil && c.steps%o.progressEvery == 0 {
		o.emitProgress()
	}
}

// ObserveMobile records a mobile-mobile interaction with its before and
// after states.
func (o *Observer) ObserveMobile(p core.Pair, x, y, x2, y2 core.State, changed bool) {
	c := o.Begin()
	c.Pair(p)
	switch {
	case !changed:
	case c.dense != nil:
		c.Rule(o.ruleTab.Idx(x, y))
	default:
		c.Fire(RuleKey{X: x, Y: y, X2: x2, Y2: y2})
	}
	c.Step(changed)
	c.Fold()
}

// ObserveLeader records a leader-mobile interaction; x and x2 are the
// mobile peer's before and after states.
func (o *Observer) ObserveLeader(p core.Pair, x, x2 core.State, changed bool) {
	c := o.Begin()
	c.Pair(p)
	switch {
	case !changed:
	case c.leader != nil:
		c.LeaderRule(x, x2)
	default:
		c.Fire(RuleKey{Leader: true, X: x, X2: x2})
	}
	c.Step(changed)
	c.Fold()
}

// ObservePair records an interaction without state attribution (no
// per-rule accounting), for drivers that only expose pair events, such
// as the adversarial runner's OnStep hook.
func (o *Observer) ObservePair(p core.Pair, changed bool) {
	c := o.Begin()
	c.Pair(p)
	c.Step(changed)
	c.Fold()
}

// TrackCensus attaches a live occupancy vector: every progress emission
// (and Finish) is then followed by a census record snapshotting the
// per-state counts. The slice is read, never written; the caller must
// be the single goroutine driving the observer.
func (o *Observer) TrackCensus(counts []int) { o.censusCounts = counts }

// emitProgress emits a progress snapshot, followed by a census record
// when a count-engine occupancy vector is attached.
func (o *Observer) emitProgress() {
	o.progressAt = o.steps.Value()
	_ = o.sink.Emit(o.snapshot())
	if o.censusCounts != nil {
		counts := make([]int, len(o.censusCounts))
		copy(counts, o.censusCounts)
		_ = o.sink.Emit(CensusRec{
			V:      Version,
			Type:   "census",
			Trial:  o.trial,
			Step:   o.progressAt,
			Counts: counts,
		})
	}
}

// pairsTotal returns the number of schedulable ordered pairs (0 when
// pair tracking is disabled).
func (o *Observer) pairsTotal() int {
	if !o.pairTrack {
		return 0
	}
	return o.m * (o.m - 1)
}

// FairnessGap returns the largest number of steps any schedulable pair
// has gone without interacting (never-seen pairs count from step 0), or
// -1 when pair tracking is disabled.
func (o *Observer) FairnessGap() int64 {
	if !o.pairTrack {
		return -1
	}
	steps := int64(o.steps.Value())
	var max int64
	for a := 0; a < o.m; a++ {
		row := o.lastSeen[a*o.m : (a+1)*o.m]
		for b, last := range row {
			if a == b {
				continue
			}
			if g := steps - last; g > max {
				max = g
			}
		}
	}
	// A never-seen pair has last = -1, giving steps+1; clamp to the
	// run length.
	if max > steps {
		max = steps
	}
	return max
}

// PairCoverage returns distinct schedulable pairs seen and the total
// (both 0 when pair tracking is disabled).
func (o *Observer) PairCoverage() (seen, total int) {
	return o.pairsSeen, o.pairsTotal()
}

func (o *Observer) snapshot() Progress {
	return Progress{
		V:           Version,
		Type:        "progress",
		Trial:       o.trial,
		Step:        o.steps.Value(),
		NonNull:     o.nonNull.Value(),
		Quiet:       atomic.LoadInt64(&o.quiet),
		PairsSeen:   o.pairsSeen,
		PairsTotal:  o.pairsTotal(),
		FairnessGap: o.FairnessGap(),
		ElapsedNS:   time.Since(o.start).Nanoseconds(),
	}
}

// denseRules calls f for every rule fired in the dense tables, with
// its key and count.
func (o *Observer) denseRules(f func(RuleKey, uint64)) {
	if o.ruleTab == nil {
		return
	}
	q := o.ruleTab.States()
	for idx, c := range o.rulesDense {
		if c != 0 {
			x2, y2 := o.ruleTab.At(idx)
			f(RuleKey{X: core.State(idx / q), Y: core.State(idx % q), X2: x2, Y2: y2}, c)
		}
	}
	for idx, c := range o.leaderDense {
		if c != 0 {
			f(RuleKey{Leader: true, X: core.State(idx / q), X2: core.State(idx % q)}, c)
		}
	}
}

// distinctRules returns the number of distinct non-null rules fired,
// across both the map and dense representations. A rule counted in
// both — fired before CompileRules switched to the dense arrays and
// again after — is one distinct rule, so dense entries that also
// appear in the map are skipped.
func (o *Observer) distinctRules() int {
	n := len(o.rules)
	o.denseRules(func(k RuleKey, _ uint64) {
		if _, dup := o.rules[k]; !dup {
			n++
		}
	})
	return n
}

// RuleCounts returns the non-null rule firings, most frequent first
// with ties broken by rule text (deterministic for fixed seeds). Counts
// from the map and dense representations are merged per rule (a run
// can touch both, e.g. a manual step before the compiled table is
// installed).
func (o *Observer) RuleCounts() []RuleCount {
	merged := make(map[string]uint64, o.distinctRules())
	for k, c := range o.rules {
		merged[k.String()] += c
	}
	o.denseRules(func(k RuleKey, c uint64) { merged[k.String()] += c })
	out := make([]RuleCount, 0, len(merged))
	for rule, c := range merged {
		out = append(out, RuleCount{Rule: rule, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// Finish closes the run: it folds the trailing quiet streak into the
// streak histogram and, when a sink is attached, emits a final progress
// snapshot (unless a periodic one was already emitted at this step)
// followed by the summary record. It is idempotent; sim.Runner
// calls it automatically at the end of Run.
func (o *Observer) Finish(converged bool) {
	if o.finished {
		return
	}
	o.finished = true
	if o.sink != nil && o.progressAt != o.steps.Value() {
		o.emitProgress()
	}
	if q := atomic.LoadInt64(&o.quiet); q > 0 {
		o.quietHist.Observe(q)
	}
	if o.sink != nil {
		_ = o.sink.Emit(o.summary(converged))
	}
}

func (o *Observer) summary(converged bool) Summary {
	par := 0.0
	if o.n > 0 {
		par = float64(o.steps.Value()) / float64(o.n)
	}
	return Summary{
		V:            Version,
		Type:         "summary",
		Trial:        o.trial,
		Converged:    converged,
		Steps:        o.steps.Value(),
		NonNull:      o.nonNull.Value(),
		ParallelTime: par,
		MaxQuiet:     o.quietHist.Max(),
		QuietStreaks: o.quietHist.Buckets(),
		PairsSeen:    o.pairsSeen,
		PairsTotal:   o.pairsTotal(),
		FairnessGap:  o.FairnessGap(),
		Rules:        o.RuleCounts(),
		Forced:       o.forced,
		ElapsedNS:    time.Since(o.start).Nanoseconds(),
	}
}

// KV is one named metric value of the flat (expvar-style) exposition.
type KV struct {
	Name, Value string
}

// Vars returns the scalar metrics as ordered name/value pairs.
func (o *Observer) Vars() []KV {
	steps := o.steps.Value()
	nonNull := o.nonNull.Value()
	nullFrac := 0.0
	if steps > 0 {
		nullFrac = 1 - float64(nonNull)/float64(steps)
	}
	elapsed := time.Since(o.start)
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(steps) / s
	}
	seen, total := o.PairCoverage()
	coverage := "n/a"
	if total > 0 {
		coverage = fmt.Sprintf("%.1f%%", 100*float64(seen)/float64(total))
	}
	return []KV{
		{"interactions", fmt.Sprintf("%d", steps)},
		{"nonNull", fmt.Sprintf("%d", nonNull)},
		{"nullFraction", fmt.Sprintf("%.4f", nullFrac)},
		{"distinctRules", fmt.Sprintf("%d", o.distinctRules())},
		{"quietStreaks", fmt.Sprintf("%d", o.quietHist.Count())},
		{"quietStreakMean", fmt.Sprintf("%.1f", o.quietHist.Mean())},
		{"quietStreakMax", fmt.Sprintf("%d", o.quietHist.Max())},
		{"pairsSeen", fmt.Sprintf("%d/%d", seen, total)},
		{"pairCoverage", coverage},
		{"fairnessGap", fmt.Sprintf("%d", o.FairnessGap())},
		{"elapsed", elapsed.Round(time.Microsecond).String()},
		{"interactionsPerSec", fmt.Sprintf("%.0f", rate)},
	}
}

// MetricsTable renders the scalar metrics as an aligned table.
func (o *Observer) MetricsTable() *report.Table {
	t := report.NewTable("run metrics", "metric", "value")
	for _, kv := range o.Vars() {
		t.AddRow(kv.Name, kv.Value)
	}
	return t
}

// RulesTable renders the most frequent rule firings (all of them when
// limit <= 0).
func (o *Observer) RulesTable(limit int) *report.Table {
	t := report.NewTable("rule firings (non-null)", "rule", "fires", "share")
	counts := o.RuleCounts()
	if limit > 0 && len(counts) > limit {
		counts = counts[:limit]
	}
	for _, rc := range counts {
		share := 0.0
		if nn := o.nonNull.Value(); nn > 0 {
			share = 100 * float64(rc.Count) / float64(nn)
		}
		t.AddRow(rc.Rule, fmt.Sprintf("%d", rc.Count), fmt.Sprintf("%.1f%%", share))
	}
	return t
}

// Dump writes the text exposition: the metrics table followed by the
// top rule firings.
func (o *Observer) Dump(w io.Writer) {
	o.MetricsTable().Render(w)
	fmt.Fprintln(w)
	o.RulesTable(16).Render(w)
}
