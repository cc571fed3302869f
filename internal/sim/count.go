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
// (x, y) is c[x]·c[y] / N(N−1) off the diagonal and c[x]·(c[x]−1) /
// N(N−1) on it (two distinct agents of one state), and with a leader
// the N+1 entities give T = (N+1)N ordered pairs, 2·c[x] of them
// between the leader and an agent of state x. CountRunner applies the
// compiled transition directly to the counts and never materializes an
// agent array, so its cost depends on |Q|, not N, which is what
// unlocks populations of 10⁶–10⁹ agents.
//
// It runs the embedded jump chain (the discrete-time Gillespie direct
// method) rather than drawing every interaction. Let W be the weight of
// the non-null mobile pairs, Σ c[x]·(c[y]−[x=y]) over non-null (x, y),
// and L the number of agents whose state is non-null against the
// current leader. An interaction is non-null with probability
// p = (W+2L)/T, independently of everything before it while the counts
// stand still, so the run of nulls before the next non-null event is
// G ~ Geometric(p) and the event is a non-null pair drawn ∝ its weight.
// G = 0 is decided exactly, by the integer Bernoulli uint64n(T) < W+2L,
// whose draw, when it succeeds, is itself uniform on [0, W+2L) and
// picks the event. G ≥ 1 is 1 + ⌊E/λ⌋ in float64, with E ~ Exp(1) and
// λ = −ln(1−p): the inversion ⌊ln U / ln(1−p)⌋ with E = −ln U, since
// G−1 given G ≥ 1 is again Geometric(p). A skip cut short by the
// budget or a chunk boundary is simply redrawn at the next step: the
// geometric law is memoryless and the counts have not changed. Within
// the mobile weight the initiator x is drawn ∝ w[x] = c[x]·A[x], where
// A[x] = Σ c[y] − [x=y] over x's non-null row, from a Fenwick tree; the
// responder ∝ c[y] (c[x]−1 on the diagonal) over that row, and is
// implied when the row holds one state, as on the naming protocols'
// diagonal rules. A count change at s moves A only for the states of
// s's non-null column, so on those diagonal-sparse protocols an event
// costs O(log |Q|) tree updates. W = L = 0 is exactly silence.

// countRNG supplies unbiased bounded uniforms from a PCG seeded
// through prng.PCG and held by value (no allocation, direct calls), the
// same generator the agent engine's sched.Random draws from. The agent
// scheduler tolerates multiply-shift bias (a fairness statistic cannot
// resolve span/2³²), but the count engine compares draws against exact
// integer weights, so it uses Lemire's debiased method: one multiply
// per draw, a second only in the rare sliver where the low word forces
// the bias check.
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

// exp returns an Exp(1) variate: math/rand/v2's ziggurat over this
// PCG, which costs less than inverting a uniform through math.Log.
func (r *countRNG) exp() float64 { return rand.New(&r.src).ExpFloat64() }

// fenwick is a Fenwick (binary indexed) tree over uint64 weights:
// O(log n) point update and weighted draw. Updates add in two's
// complement, so a decrease is the wrapped negative delta. The tree is
// sized to a power of two (the padding holds zero weights), so a draw
// descends every level without bounds tests.
type fenwick struct {
	tree []uint64 // 1-indexed partial sums, len = top+1
	top  int      // power of two ≥ n
}

func newFenwick(n int) fenwick {
	top := 1
	for top < n {
		top *= 2
	}
	return fenwick{tree: make([]uint64, top+1), top: top}
}

func (f *fenwick) add(i int, d uint64) {
	for j := i + 1; j <= f.top; j += j & -j {
		f.tree[j] += d
	}
}

// find returns the index i whose cumulative weight range holds u:
// Σ_{j<i} w[j] ≤ u < Σ_{j≤i} w[j]. u must be below the total weight.
func (f *fenwick) find(u uint64) int {
	pos := 0
	for k := f.top >> 1; k > 0; k >>= 1 {
		if t := f.tree[pos+k]; t <= u {
			u -= t
			pos += k
		}
	}
	return pos
}

// countEvents holds the jump chain's non-null weights for one count
// vector (shared with the CountConfig, so every move flows back into
// it) and draws non-null events from them.
type countEvents struct {
	tab    *core.Compiled
	lp     core.LeaderProtocol
	counts []int
	a      []int64  // A[x]: Σ c[y] − [x=y] over x's non-null row
	solo   []int32  // the one state of x's non-null row, or -1
	w      []uint64 // w[x] = c[x]·A[x]
	tree   fenwick  // over w
	mobile uint64   // W = Σ w
	// lact marks the states non-null against the current leader, and
	// leader = L counts their agents (always 0 without a leader).
	lact   []bool
	leader uint64
}

func newCountEvents(tab *core.Compiled, counts []int, l core.Leader) *countEvents {
	q := len(counts)
	e := &countEvents{
		tab:    tab,
		counts: counts,
		a:      make([]int64, q),
		solo:   make([]int32, q),
		w:      make([]uint64, q),
		tree:   newFenwick(q),
		lact:   make([]bool, q),
	}
	e.lp, _ = tab.Leader()
	for x := range counts {
		members := 0
		for i, word := range tab.Row(core.State(x)) {
			members += bits.OnesCount64(word)
			for ; word != 0; word &= word - 1 {
				y := i<<6 + bits.TrailingZeros64(word)
				e.a[x] += int64(counts[y])
				e.solo[x] = int32(y)
			}
		}
		if !tab.Null(core.State(x), core.State(x)) {
			e.a[x]-- // an agent does not meet itself
		}
		if members != 1 {
			e.solo[x] = -1
		}
		e.reweigh(x)
	}
	e.setLeader(l)
	return e
}

// silent reports whether no interaction can change the configuration.
func (e *countEvents) silent() bool { return e.mobile == 0 && e.leader == 0 }

// reweigh recomputes w[x] from c[x] and A[x].
func (e *countEvents) reweigh(x int) {
	var w uint64
	if c := e.counts[x]; c > 0 {
		w = uint64(c) * uint64(e.a[x])
	}
	if d := w - e.w[x]; d != 0 {
		e.w[x] = w
		e.mobile += d
		e.tree.add(x, d)
	}
}

// shift changes c[s] by d (±1): A moves for the states of s's non-null
// column, w for those and s itself.
func (e *countEvents) shift(s, d int) {
	e.counts[s] += d
	if e.lact[s] {
		e.leader += uint64(d)
	}
	col := e.tab.Col(core.State(s))
	for i, word := range col {
		for word != 0 {
			x := i<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			e.a[x] += int64(d)
			if x != s {
				e.reweigh(x)
			}
		}
	}
	e.reweigh(s)
}

// move moves one agent from state x to state x2 (x2 != x).
func (e *countEvents) move(x, x2 core.State) {
	e.shift(int(x), -1)
	e.shift(int(x2), 1)
}

// setLeader recomputes the leader-active states and L for leader l:
// |Q| leader transitions, paid only when the leader changes.
func (e *countEvents) setLeader(l core.Leader) {
	if e.lp == nil {
		return
	}
	e.leader = 0
	for s := range e.lact {
		e.lact[s] = !core.IsNullLeader(e.lp, l, core.State(s))
		if e.lact[s] {
			e.leader += uint64(e.counts[s])
		}
	}
}

// draw returns the non-null event of weight index u ∈ [0, W+2L): for
// u < 2L (an interaction involves the leader from either side, hence
// the 2) the leader meeting an agent of state x, with leader set and y
// unused; otherwise the mobile pair (x, y) — the initiator from the
// tree, the responder ∝ c[y] − [x=y] over x's non-null row.
func (e *countEvents) draw(u uint64, rng *countRNG) (x, y core.State, leader bool) {
	if u < 2*e.leader {
		return e.peer(u >> 1), 0, true
	}
	xi := e.tree.find(u - 2*e.leader)
	if y := e.solo[xi]; y >= 0 {
		return core.State(xi), core.State(y), false // the naming protocols' diagonal rows
	}
	j := rng.uint64n(uint64(e.a[xi]))
	row := e.tab.Row(core.State(xi))
	for i, word := range row {
		for word != 0 {
			yi := i<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			c := uint64(e.counts[yi])
			if yi == xi {
				c--
			}
			if j < c {
				return core.State(xi), core.State(yi), false
			}
			j -= c
		}
	}
	panic("sim: count events: responder weight out of range")
}

// peer returns the leader-active state of agent index k ∈ [0, L).
func (e *countEvents) peer(k uint64) core.State {
	for s, act := range e.lact {
		if !act {
			continue
		}
		c := uint64(e.counts[s])
		if k < c {
			return core.State(s)
		}
		k -= c
	}
	panic("sim: count events: leader peer out of range")
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

	// Obs, when non-nil, receives per-rule accounting, periodic
	// progress + census records, and the final summary. The run loop
	// feeds it through an obs.Chunk folded once per progress period
	// (or slice); the runner wires CompileRules and TrackCensus itself.
	Obs *obs.Observer

	tab   *core.Compiled
	ev    *countEvents
	rng   countRNG
	n     int
	total uint64 // T: ordered pairs of distinct entities

	steps   int
	nonNull int
	quiet   int
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
	total, _ := core.TotalPairWeight(n, cfg.HasLeader()) // in bounds: CheckCount passed
	return &CountRunner{Proto: p, Cfg: cfg, Seed: seed, tab: tab, n: n, total: total}, nil
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

// ensure builds the event weights and RNG on first use, honoring the
// Obs field assigned after construction.
func (r *CountRunner) ensure() {
	if r.ev != nil {
		return
	}
	r.ev = newCountEvents(r.tab, r.Cfg.Counts, r.Cfg.Leader)
	r.rng = newCountRNG(r.Seed)
	if r.Obs != nil {
		r.Obs.CompileRules(r.tab)
		r.Obs.TrackCensus(r.Cfg.Counts)
	}
}

func (r *CountRunner) silent() bool { return r.ev.silent() }

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

// Run executes interactions until the configuration is silent or
// maxSteps interactions have been executed. Silence is checked
// initially and then whenever the execution has been quiet (all-null)
// for a full QuietThreshold window — the same schedule as Runner.Run,
// so the two engines' Steps distributions are comparable. When Obs is
// set, Run finishes it before returning.
func (r *CountRunner) Run(maxSteps int) Result {
	res := r.run(maxSteps)
	r.finish(res.Converged)
	return res
}

// run advances the jump chain one non-null event at a time, each after
// its geometric run of nulls. Interaction counts, quiet streaks and
// observer records come out as if every null had been stepped: a skip
// stops at maxSteps and at every chunk boundary (and is redrawn after
// it), and a silent configuration idles to the next full quiet window,
// where the per-step loop would have tested silence.
func (r *CountRunner) run(maxSteps int) Result {
	r.ensure()
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
			room := end - r.steps
			weight := r.ev.mobile + 2*r.ev.leader
			if weight == 0 {
				if idle := threshold - r.quiet%threshold; idle <= room {
					r.nulls(idle, oc)
					silent = true
				} else {
					r.nulls(room, oc)
				}
				break
			}
			g, u := r.jump(weight)
			if g >= float64(room) {
				r.nulls(room, oc)
				break
			}
			if g > 0 {
				r.nulls(int(g), oc)
			}
			r.event(u, oc)
		}
		if oc != nil {
			oc.Fold()
		}
	}
	return Result{Converged: silent || r.silent(), Steps: r.steps, NonNull: r.nonNull, Census: r.Cfg}
}

// nulls advances the counters by k null interactions.
func (r *CountRunner) nulls(k int, oc *obs.Chunk) {
	r.steps += k
	r.quiet += k
	if oc != nil {
		oc.Nulls(k)
	}
}

// jump draws the run of nulls before the next non-null event, g ~
// Geometric(weight/T) as a float64 (it can exceed any int budget), and
// the event's weight index u ∈ [0, weight). g = 0 is decided exactly,
// by an integer draw that is then uniform on [0, weight) itself; g ≥ 1
// is inverted in float64 and followed by a fresh event draw.
func (r *CountRunner) jump(weight uint64) (g float64, u uint64) {
	if u = r.rng.uint64n(r.total); u < weight {
		return 0, u
	}
	p := float64(weight) / float64(r.total)
	g = 1 + math.Floor(r.rng.exp()/-math.Log1p(-p))
	return g, r.rng.uint64n(weight)
}

// event applies the non-null event of weight index u (see
// countEvents.draw).
func (r *CountRunner) event(u uint64, oc *obs.Chunk) {
	ev := r.ev
	x, y, leader := ev.draw(u, &r.rng)
	if leader {
		l := r.Cfg.Leader
		l2, x2 := ev.lp.LeaderInteract(l, x)
		if x2 != x {
			ev.move(x, x2)
		}
		if l2 != l {
			r.Cfg.Leader = l2
			ev.setLeader(l2)
		}
		if oc != nil {
			oc.LeaderRule(x, x2)
		}
	} else {
		idx := r.tab.Idx(x, y)
		x2, y2 := r.tab.At(idx)
		if x2 != x {
			ev.move(x, x2)
		}
		if y2 != y {
			ev.move(y, y2)
		}
		if oc != nil {
			oc.Rule(idx)
		}
	}
	r.steps++
	r.nonNull++
	r.quiet = 0
	if oc != nil {
		oc.Step(true)
	}
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
