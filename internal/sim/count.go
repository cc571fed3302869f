package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"popnaming/internal/core"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/prng"
)

// The count-based (Gillespie) engine. Under the uniform random
// scheduler a configuration is fully described by its per-state counts:
// the probability that the next interaction is an ordered state pair
// (p, q) is c[p]·c[q] / N(N−1) off the diagonal and c[p]·(c[p]−1) /
// N(N−1) on it (two distinct agents of one state), and with a leader
// the leader interacts with probability 2/(N+1), its peer uniform over
// the N mobile agents. CountRunner samples state pairs from exactly
// these weights, applies the compiled transition directly to the
// counts, and never materializes an agent array — per-step cost depends
// on |Q|, not N, which is what unlocks populations of 10⁶–10⁹ agents.
//
// The |Q|² pair distribution is never tabulated: it factors exactly
// into two |Q|-ary draws. The initiator p is a state drawn ∝ c[p]; the
// responder is a state drawn ∝ c[q] and, when it collides with p,
// accepted with probability (c[p]−1)/c[p] (the chance a uniformly
// random agent of state p is not the initiator itself) or redrawn —
// which is exactly "a uniformly random agent among the other N−1". The
// rejection probability is 1/N per step, so the factorization is both
// exact and cheaper than maintaining |Q|² weights.
//
// Two interchangeable samplers implement the c-proportional draw (see
// CountSamplers); the benchmark-selected default is the Fenwick tree.

// countRNG supplies unbiased bounded uniforms from a PCG seeded
// through prng.PCG and held by value (no allocation, direct calls), the
// same generator the agent engine's sched.Random draws from. The agent
// scheduler tolerates multiply-shift bias (a fairness statistic cannot
// resolve span/2³²), but the count engine's collision and staleness
// rejections compare against exact integer thresholds, so it uses
// Lemire's debiased method: one multiply per draw, a second only in the
// rare sliver where the low word forces the bias check.
type countRNG struct {
	src rand.PCG
}

func newCountRNG(seed int64) countRNG {
	return countRNG{src: prng.PCG(seed)}
}

// uint64n returns an unbiased uniform draw from [0, n). n must be > 0.
func (r *countRNG) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(r.src.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.src.Uint64(), n)
		}
	}
	return hi
}

// countSampler draws a state with probability proportional to its
// current count. After the census mutates the shared counts slice the
// runner calls sync for each touched state; sync is idempotent.
type countSampler interface {
	draw(r *countRNG) core.State
	sync(s core.State)
}

// CountSamplers lists the sampler implementations selectable through
// CountRunner.Sampler: "fenwick" (a Fenwick tree over the counts,
// O(log |Q|) draw and update) and "alias" (an integer Vose alias table
// over a count snapshot, O(1) amortized draw with exact staleness
// rejection between lazy rebuilds). "auto" or empty selects the
// benchmark winner (see BenchmarkCountSampler): the Fenwick tree, which
// BENCH_PR7.json shows ahead at |Q| ≤ 8 and tied at |Q| = 64 — every
// registry protocol lives there — and overtaken by the alias table's
// O(1) draw only near the |Q| = 1024 compiled-table cap (~81 vs ~71
// ns/step), where the alias sampler remains selectable (and
// differentially tested) for protocols that big.
var CountSamplers = []string{"auto", "fenwick", "alias"}

// ValidCountSampler reports whether name selects a sampler.
func ValidCountSampler(name string) bool {
	for _, s := range CountSamplers {
		if name == s || name == "" {
			return true
		}
	}
	return false
}

// fenwickSampler keeps the counts in a Fenwick (binary indexed) tree:
// drawing descends the implicit prefix sums in O(log |Q|), syncing a
// state updates O(log |Q|) nodes. No staleness, no rejection — the
// simple baseline the alias sampler must beat.
type fenwickSampler struct {
	counts  []int   // live, shared with the census
	shadow  []int   // last value synced into the tree, per state
	tree    []int64 // 1-indexed Fenwick array
	total   uint64  // population N (constant: transitions conserve it)
	highbit int     // largest power of two ≤ len(counts)
	q       int
}

func newFenwickSampler(counts []int, n int) *fenwickSampler {
	q := len(counts)
	hb := 1
	for hb*2 <= q {
		hb *= 2
	}
	f := &fenwickSampler{
		counts:  counts,
		shadow:  make([]int, q),
		tree:    make([]int64, q+1),
		total:   uint64(n),
		highbit: hb,
		q:       q,
	}
	copy(f.shadow, counts)
	// Linear-time Fenwick construction from the initial counts.
	for i := 0; i < q; i++ {
		f.tree[i+1] += int64(counts[i])
		if j := i + 1 + ((i + 1) & -(i + 1)); j <= q {
			f.tree[j] += f.tree[i+1]
		}
	}
	return f
}

func (f *fenwickSampler) draw(r *countRNG) core.State {
	u := int64(r.uint64n(f.total))
	// Prefix-sum descent: find the first state whose cumulative count
	// exceeds u.
	pos := 0
	for k := f.highbit; k > 0; k >>= 1 {
		if next := pos + k; next <= f.q && f.tree[next] <= u {
			u -= f.tree[next]
			pos = next
		}
	}
	return core.State(pos)
}

func (f *fenwickSampler) sync(s core.State) {
	i := int(s)
	delta := int64(f.counts[i] - f.shadow[i])
	if delta == 0 {
		return
	}
	f.shadow[i] = f.counts[i]
	for j := i + 1; j <= f.q; j += j & -j {
		f.tree[j] += delta
	}
}

// aliasSampler draws in O(1) amortized from an integer Vose alias table
// built over a snapshot of the counts, rebuilt lazily. Between rebuilds
// the live counts drift from the snapshot; exactness is restored by
// rejection: states are proposed from the mixture (snap + d⁺)/(N + D⁺),
// where d⁺[s] = max(0, c[s] − snap[s]) and D⁺ = Σ d⁺, and a proposed s
// is accepted with probability c[s]/(snap[s] + d⁺[s]) ≤ 1. The mixture
// dominates the target (c ≤ snap + d⁺ pointwise), so accepted draws are
// exactly c-proportional however stale the table is. A rebuild triggers
// once D⁺ reaches max(64, N/8), bounding the worst-case acceptance rate
// below by about 7/9 and amortizing the O(|Q|) rebuild over at least 32
// transitions (each non-null transition adds at most 2 to D⁺).
//
// The table itself is exact in integers: weights snap[i]·|Q| (≤ 2⁴² for
// N ≤ 2³², |Q| ≤ 2¹⁰) are Vose-packed into |Q| buckets of capacity N,
// and one uniform draw from [0, N·|Q|) yields the bucket (quotient) and
// the threshold comparand (remainder) at once.
type aliasSampler struct {
	counts []int  // live, shared with the census
	n      uint64 // population N (constant)
	q      int

	snap   []int64 // counts at the last rebuild
	thresh []uint64
	alias  []int32

	dplus   []int64 // d⁺ per state; positive entries are in touched
	dtot    uint64  // D⁺
	touched []int32
	inTouch []bool

	rebuildAt uint64
	rebuilds  uint64

	scratch []int64 // Vose weights
	small   []int32 // Vose worklists
	large   []int32
}

func newAliasSampler(counts []int, n int) *aliasSampler {
	q := len(counts)
	a := &aliasSampler{
		counts:  counts,
		n:       uint64(n),
		q:       q,
		snap:    make([]int64, q),
		thresh:  make([]uint64, q),
		alias:   make([]int32, q),
		dplus:   make([]int64, q),
		inTouch: make([]bool, q),
		scratch: make([]int64, q),
		small:   make([]int32, 0, q),
		large:   make([]int32, 0, q),
	}
	a.rebuildAt = uint64(n / 8)
	if a.rebuildAt < 64 {
		a.rebuildAt = 64
	}
	a.rebuild()
	return a
}

// rebuild snapshots the counts and repacks the alias table (integer
// Vose): every bucket ends with threshold in [0, N] and an alias, and
// leftover buckets are exactly full (threshold N, alias unused).
func (a *aliasSampler) rebuild() {
	n := int64(a.n)
	q := int64(a.q)
	small, large := a.small[:0], a.large[:0]
	for i := range a.counts {
		a.snap[i] = int64(a.counts[i])
		w := a.snap[i] * q
		a.scratch[i] = w
		if w < n {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		a.thresh[s] = uint64(a.scratch[s])
		a.alias[s] = l
		a.scratch[l] -= n - a.scratch[s]
		if a.scratch[l] < n {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Total weight is exactly N·|Q|, so whatever remains is exactly
	// full: threshold N means the alias is never taken.
	for _, i := range small {
		a.thresh[i] = a.n
		a.alias[i] = i
	}
	for _, i := range large {
		a.thresh[i] = a.n
		a.alias[i] = i
	}
	a.small, a.large = small[:0], large[:0]
	for _, s := range a.touched {
		a.dplus[s] = 0
		a.inTouch[s] = false
	}
	a.touched = a.touched[:0]
	a.dtot = 0
	a.rebuilds++
}

// Rebuilds returns the number of alias-table rebuilds so far (the
// first, at construction, included).
func (a *aliasSampler) Rebuilds() uint64 { return a.rebuilds }

func (a *aliasSampler) tableDraw(r *countRNG) int {
	t := r.uint64n(a.n * uint64(a.q))
	b := t / a.n
	if t%a.n < a.thresh[b] {
		return int(b)
	}
	return int(a.alias[b])
}

func (a *aliasSampler) draw(r *countRNG) core.State {
	for {
		var s int
		if a.dtot == 0 {
			// Counts sum to N on both sides, so D⁺ = 0 means the
			// snapshot is exact: no mixture, no rejection.
			return core.State(a.tableDraw(r))
		}
		if t := r.uint64n(a.n + a.dtot); t < a.n {
			s = a.tableDraw(r)
		} else {
			t -= a.n
			for _, st := range a.touched {
				if d := uint64(a.dplus[st]); t < d {
					s = int(st)
					break
				} else if a.dplus[st] > 0 {
					t -= d
				}
			}
		}
		prop := uint64(a.snap[s] + a.dplus[s])
		if c := uint64(a.counts[s]); c >= prop || r.uint64n(prop) < c {
			return core.State(s)
		}
	}
}

func (a *aliasSampler) sync(s core.State) {
	i := int(s)
	dp := int64(a.counts[i]) - a.snap[i]
	if dp < 0 {
		dp = 0
	}
	if dp == a.dplus[i] {
		return
	}
	a.dtot = uint64(int64(a.dtot) + dp - a.dplus[i])
	a.dplus[i] = dp
	if dp > 0 && !a.inTouch[i] {
		a.inTouch[i] = true
		a.touched = append(a.touched, int32(i))
	}
	if a.dtot >= a.rebuildAt {
		a.rebuild()
	}
}

func newCountSampler(name string, counts []int, n int) (countSampler, error) {
	switch name {
	case "", "auto", "fenwick":
		return newFenwickSampler(counts, n), nil
	case "alias":
		return newAliasSampler(counts, n), nil
	default:
		return nil, fmt.Errorf("sim: unknown count sampler %q (auto | fenwick | alias)", name)
	}
}

// CountRunner executes one protocol instance over a count-space
// configuration. It requires a compilable protocol (the transition
// table is the whole engine) and an in-bounds population (see
// core.TotalPairWeight); NewCountRunner checks both.
//
// It is an Executor like Runner, so Supervise and the batch pool drive
// it with the same deadline, stall retry, slices and spans. What it
// lacks is what count space cannot express: a scheduler (the pair law
// is fixed to uniform random — the one scheduler whose executions are
// count-measurable), a fault injector (fault kinds target agent
// identities) and an interpreted path. Convergence semantics match
// Runner exactly: each run tests silence first and then after every
// full QuietThreshold window of consecutive null interactions — so a
// supervised count trial, like an agent trial, also tests it at every
// slice boundary — and the two engines' convergence-step distributions
// agree (the differential tests hold them to a Kolmogorov–Smirnov
// test).
type CountRunner struct {
	Proto core.Protocol
	// Cfg is mutated in place as transitions are applied.
	Cfg *core.CountConfig
	// Seed seeds the engine's single RNG. It plays the role of the
	// agent engine's scheduler seed; drivers that derive per-trial
	// seeds pass trialSeed+1 here to mirror the agent wiring.
	Seed int64

	// QuietThreshold overrides the silence-test window (0: the Runner
	// default, 4N² with a floor of 64, saturating for populations so
	// large that 4N² overflows — such runs test silence only at the
	// budget boundary, which is the right trade at N ≥ 2³⁰).
	QuietThreshold int

	// Sampler selects the c-proportional state sampler (see
	// CountSamplers); empty or "auto" uses the benchmark default.
	Sampler string

	// Obs, when non-nil, receives per-rule accounting, periodic
	// progress + census records, and the final summary. The run loop
	// feeds it through an obs.Chunk folded once per progress period
	// (or slice); the runner wires CompileRules and TrackCensus itself.
	Obs *obs.Observer

	tab    *core.Compiled
	census *core.Census
	smp    countSampler
	rng    countRNG
	lp     core.LeaderProtocol
	n      int

	steps   int
	nonNull int
	quiet   int
	ready   bool
}

// NewCountRunner validates the (protocol, configuration) pair and
// returns a count-engine runner. Unlike the agent engine the population
// may exceed the naming bound P — count dynamics are well-defined for
// any N (naming itself is then unachievable by pigeonhole), and the
// large-N scaling benchmarks depend on exactly that.
func NewCountRunner(p core.Protocol, cfg *core.CountConfig, seed int64) (*CountRunner, error) {
	return newCountRunner(p, cfg, seed, nil)
}

// newCountRunner is NewCountRunner over p's already compiled table
// (nil: compile it here).
func newCountRunner(p core.Protocol, cfg *core.CountConfig, seed int64, tab *core.Compiled) (*CountRunner, error) {
	if core.HasLeader(p) != cfg.HasLeader() {
		return nil, fmt.Errorf("sim: protocol %q and count configuration disagree about leader presence", p.Name())
	}
	if len(cfg.Counts) != p.States() {
		return nil, fmt.Errorf("sim: count configuration has %d states, protocol %q declares %d", len(cfg.Counts), p.Name(), p.States())
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.N()
	if err := CheckCount(p, n); err != nil {
		return nil, err
	}
	if tab == nil {
		var err error
		if tab, err = core.Compile(p); err != nil {
			return nil, fmt.Errorf("sim: count engine requires a compiled table: %w", err)
		}
	} else if tab.Source() != p {
		return nil, fmt.Errorf("sim: compiled table of %q used for a count runner of %q", tab.Name(), p.Name())
	}
	lp, _ := p.(core.LeaderProtocol)
	return &CountRunner{Proto: p, Cfg: cfg, Seed: seed, tab: tab, lp: lp, n: n}, nil
}

// CheckCount reports whether the count engine can run protocol p over n
// mobile agents, without building anything: p's state count is within
// the compiled-table cap, the population has a pair to schedule, and
// its total pair weight fits in uint64 (core.TotalPairWeight).
// NewCountRunner enforces the same bounds; service admission calls
// CheckCount instead of probing with a throwaway runner.
func CheckCount(p core.Protocol, n int) error {
	if q := p.States(); q > maxCompiledStates {
		return fmt.Errorf("sim: count engine requires a compiled table: %q has %d states (max %d)", p.Name(), q, maxCompiledStates)
	}
	leader := core.HasLeader(p)
	if n < 2 && !leader {
		return fmt.Errorf("sim: population too small for interactions (n=%d, no leader)", n)
	}
	if n < 1 {
		return fmt.Errorf("sim: population too small for interactions (n=%d)", n)
	}
	_, err := core.TotalPairWeight(n, leader)
	return err
}

// Steps returns the number of interactions executed so far.
func (r *CountRunner) Steps() int { return r.steps }

// NonNull returns the number of state-changing interactions so far.
func (r *CountRunner) NonNull() int { return r.nonNull }

// AliasRebuilds returns the number of alias-table rebuilds performed,
// or 0 when the Fenwick sampler is active (benchmark instrumentation).
func (r *CountRunner) AliasRebuilds() uint64 {
	if a, ok := r.smp.(*aliasSampler); ok {
		return a.Rebuilds()
	}
	return 0
}

// ensure builds the census, sampler and RNG on first use, honoring
// Sampler/Obs fields assigned after construction.
func (r *CountRunner) ensure() error {
	if r.ready {
		return nil
	}
	census, err := core.NewCensusCounts(r.tab, r.Cfg.Counts)
	if err != nil {
		return err
	}
	smp, err := newCountSampler(r.Sampler, r.Cfg.Counts, r.n)
	if err != nil {
		return err
	}
	r.census, r.smp = census, smp
	r.rng = newCountRNG(r.Seed)
	if r.Obs != nil {
		r.Obs.CompileRules(r.tab)
		r.Obs.TrackCensus(r.Cfg.Counts)
	}
	r.ready = true
	return nil
}

func (r *CountRunner) silent() bool { return r.census.Silent(r.Cfg.Leader) }

func (r *CountRunner) quietThreshold() int {
	if r.QuietThreshold > 0 {
		return r.QuietThreshold
	}
	if r.n > 1<<30 {
		// 4N² would overflow; saturate, deferring the silence test to
		// the budget boundary (a population this large converging
		// inside any realistic budget is not a case worth optimizing).
		return math.MaxInt
	}
	t := 4 * r.n * r.n
	if t < 64 {
		t = 64
	}
	return t
}

// step executes one interaction and reports whether it was non-null,
// recording it into oc when the run is observed (oc non-nil).
func (r *CountRunner) step(oc *obs.Chunk) bool {
	// With a leader, a uniformly random ordered pair of the N+1
	// entities involves the leader with probability 2N/((N+1)N) =
	// 2/(N+1); the mobile peer is uniform over the N agents, i.e. its
	// state is drawn ∝ c. Initiator/responder roles collapse, exactly
	// as the agent engine's ApplyLeader does.
	if r.lp != nil && r.rng.uint64n(uint64(r.n)+1) < 2 {
		x := r.smp.draw(&r.rng)
		l2, x2 := r.lp.LeaderInteract(r.Cfg.Leader, x)
		changed := x2 != x || l2 != r.Cfg.Leader
		r.Cfg.Leader = l2
		if x2 != x {
			r.census.ApplyOne(x, x2)
			r.smp.sync(x)
			r.smp.sync(x2)
		}
		if oc != nil && changed {
			oc.Fire(obs.RuleKey{Leader: true, X: x, X2: x2})
		}
		return changed
	}
	p := r.smp.draw(&r.rng)
	q := r.drawResponder(p)
	idx := r.tab.Idx(p, q)
	p2, q2 := r.tab.At(idx)
	changed := p2 != p || q2 != q
	if changed {
		r.census.Apply(p, q, p2, q2)
		r.smp.sync(p)
		r.smp.sync(q)
		r.smp.sync(p2)
		r.smp.sync(q2)
		if oc != nil {
			oc.Rule(idx)
		}
	}
	return changed
}

// drawResponder draws the responder state: a c-proportional draw that,
// when it collides with the initiator's state p, is kept only with
// probability (c[p]−1)/c[p] — the chance that a uniformly random agent
// of state p is not the initiator itself. The accepted draw is exactly
// the state of a uniformly random agent among the other N−1; the
// rejection probability is 1/N per attempt.
func (r *CountRunner) drawResponder(p core.State) core.State {
	for {
		q := r.smp.draw(&r.rng)
		if q != p {
			return q
		}
		if cp := uint64(r.Cfg.Counts[p]); r.rng.uint64n(cp) < cp-1 {
			return q
		}
	}
}

// Run executes interactions until the configuration is silent or
// maxSteps interactions have been executed. Silence is checked
// initially and then whenever the execution has been quiet (all-null)
// for a full QuietThreshold window — the same schedule as Runner.Run,
// so the two engines' Steps distributions are comparable. When Obs is
// set, Run finishes it before returning. The error reports an unknown
// Sampler.
func (r *CountRunner) Run(maxSteps int) (Result, error) {
	if err := r.ensure(); err != nil {
		return Result{}, err
	}
	res := r.run(maxSteps)
	r.finish(res.Converged)
	return res, nil
}

func (r *CountRunner) run(maxSteps int) Result {
	if err := r.ensure(); err != nil {
		panic(err)
	}
	if r.silent() {
		return Result{Converged: true, Steps: r.steps, NonNull: r.nonNull, Census: r.Cfg}
	}
	threshold := r.quietThreshold()
	var (
		chunk  obs.Chunk
		oc     *obs.Chunk // &chunk when observed; it folds at progress boundaries, maxSteps and silence
		silent bool
	)
	if r.Obs != nil {
		oc = &chunk
	}
	for r.steps < maxSteps && !silent {
		end := maxSteps
		if oc != nil {
			*oc = r.Obs.Begin()
			end = r.steps + oc.Room(maxSteps-r.steps)
		}
		for r.steps < end {
			changed := r.step(oc)
			if oc != nil {
				oc.Step(changed)
			}
			r.steps++
			if changed {
				r.nonNull++
				r.quiet = 0
			} else {
				r.quiet++
				if r.quiet%threshold == 0 && r.silent() {
					silent = true
					break
				}
			}
		}
		if oc != nil {
			oc.Fold()
		}
	}
	return Result{Converged: silent || r.silent(), Steps: r.steps, NonNull: r.nonNull, Census: r.Cfg}
}

// Observer returns the attached observer (nil when unobserved).
func (r *CountRunner) Observer() *obs.Observer { return r.Obs }

func (r *CountRunner) snapshot() Result {
	return Result{Steps: r.steps, NonNull: r.nonNull, Census: r.Cfg}
}

func (r *CountRunner) quietStreak() int { return r.quiet }

func (r *CountRunner) finish(converged bool) {
	if r.Obs != nil {
		r.Obs.Finish(converged)
	}
}

// fired is always empty: the count engine takes no fault injector.
func (r *CountRunner) fired() []fault.Fired { return nil }

// UniformCountConfig builds the protocol's intended starting
// configuration in count space: all N agents in the uniform initial
// mobile state (state 0 when the protocol declares none) plus the
// initialized leader — UniformConfig without the agent array.
func UniformCountConfig(p core.Protocol, n int) *core.CountConfig {
	var s core.State
	if up, ok := p.(core.UniformInitProtocol); ok {
		s = up.InitMobile()
	}
	cc := core.NewCountConfig(p.States())
	cc.Counts[s] = n
	cc.Leader = core.InitialLeader(p)
	return cc
}
