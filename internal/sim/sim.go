// Package sim drives protocol executions: it couples a protocol, a
// scheduler and a starting configuration, runs interactions until the
// configuration is silent (terminal) or a step budget is exhausted, and
// reports convergence statistics. It also provides configuration
// construction helpers (uniform, arbitrary, adversarial) and transient
// fault injection for the self-stabilization experiments.
//
// The runner executes through a compiled engine whenever it can (see
// core.Compile): mobile-mobile transitions become two array loads, a
// per-state census turns the mobile side of convergence detection into
// an O(1) counter test, and Run fuses scheduler, table lookup, census
// update and observer accounting into one allocation-free loop.
// Protocols that fail to compile, oversized state spaces and explicitly
// interpreted runners fall back to the original interface-dispatch
// path; the two paths are step-for-step equivalent (see
// TestCompiledMatchesInterpreted).
package sim

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"popnaming/internal/core"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/prng"
	"popnaming/internal/sched"
	"popnaming/internal/trace"
)

// maxCompiledStates caps the state count for transparent compilation:
// beyond it the |Q|² tables (two []State plus a bitset) stop paying for
// themselves in memory, and the runner keeps interface dispatch.
const maxCompiledStates = 1 << 10

// Result summarizes one execution.
type Result struct {
	// Converged reports whether a silent configuration was reached
	// within the step budget.
	Converged bool
	// Steps is the total number of interactions executed, null ones
	// included. The runner checks for silence only after a full window
	// of consecutive null interactions (see Runner.QuietThreshold), so
	// on a converged result Steps includes that trailing quiet tail of
	// up to one window beyond the last state-changing interaction.
	Steps int
	// NonNull is the number of state-changing interactions.
	NonNull int
	// Final is the last configuration of an agent-engine run (aliased,
	// not copied); nil for count-engine runs.
	Final *core.Config
	// Census is the last configuration of a count-engine run (aliased,
	// not copied); nil for agent-engine runs.
	Census *core.CountConfig
}

// ValidNaming reports whether the final configuration, of either
// engine, is a valid naming (false when there is none).
func (r Result) ValidNaming() bool {
	if r.Census != nil {
		return r.Census.ValidNaming()
	}
	return r.Final != nil && r.Final.ValidNaming()
}

// ParallelTime returns the standard parallel-time normalization:
// interactions divided by population size.
func (r Result) ParallelTime(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(r.Steps) / float64(n)
}

func (r Result) String() string {
	status := "did not converge"
	if r.Converged {
		status = "converged"
	}
	var final fmt.Stringer = r.Final
	if r.Census != nil {
		final = r.Census
	}
	return fmt.Sprintf("%s after %d interactions (%d non-null): %s", status, r.Steps, r.NonNull, final)
}

// Runner executes one protocol instance over one configuration.
type Runner struct {
	// Proto, Sched and Cfg define the execution. Cfg is mutated in
	// place as interactions are applied. Once stepping has begun the
	// configuration must only be mutated through the runner (the
	// compiled engine mirrors it in a state census); corrupt-and-rerun
	// experiments build a fresh runner per phase.
	Proto core.Protocol
	Sched sched.Scheduler
	Cfg   *core.Config

	// QuietThreshold is the number of consecutive null interactions
	// after which the runner checks the configuration for silence
	// (convergence). Zero selects a default proportional to the square
	// of the population size.
	QuietThreshold int

	// OnStep, when non-nil, receives every interaction event (for trace
	// recording and fairness audits).
	OnStep func(trace.Event)

	// Obs, when non-nil, receives every interaction together with the
	// before/after states (per-rule accounting), periodic progress
	// snapshots, and the final summary at the end of Run. Run feeds it
	// from the fused loop through an obs.Chunk, folding the counters
	// once per progress period or run call (live Snapshot counters
	// trail by at most that much); Step and the interpreted path feed
	// it one interaction at a time. Observed or not, Run allocates
	// nothing per interaction (see BenchmarkRunnerObsOverhead).
	Obs *obs.Observer

	// Interpret forces the interface-dispatch path, disabling the
	// compiled engine. The differential tests use it to prove the two
	// paths equivalent; set it before the first Step or Run.
	Interpret bool

	// Inject, when non-nil, is a fault injector Run consults between
	// interactions: step-triggered events fire before the interaction
	// that crosses their step count, convergence-triggered events fire
	// when a silence check succeeds, and the runner resyncs its census
	// after every mutating event. Silence is only terminal once every
	// plan event has fired — a silent population still interacts
	// (nullly), so the run idles toward pending step triggers, and a
	// budget-exhausted run reports Converged only if it is silent with
	// the plan exhausted. Run with a nil Inject is unchanged — one
	// pointer test per run, zero cost per step. The manual Step API
	// does not consult the injector.
	Inject *fault.Injector

	steps   int
	nonNull int
	quiet   int

	engineInit bool
	tab        *core.Compiled // nil: interpreted path
	census     *core.Census   // non-nil iff tab is
	lp         core.LeaderProtocol
	rnd        *sched.Random // non-nil when Sched is a *sched.Random
}

// NewRunner returns a runner over the given protocol, scheduler and
// starting configuration.
func NewRunner(p core.Protocol, s sched.Scheduler, c *core.Config) *Runner {
	if core.HasLeader(p) != c.HasLeader() {
		panic(fmt.Sprintf("sim: protocol %q and configuration disagree about leader presence", p.Name()))
	}
	return &Runner{Proto: p, Sched: s, Cfg: c}
}

// Steps returns the number of interactions executed so far.
func (r *Runner) Steps() int { return r.steps }

// NonNull returns the number of state-changing interactions so far.
func (r *Runner) NonNull() int { return r.nonNull }

// Compiled reports whether the runner is executing through the
// compiled engine (table dispatch + incremental silence detection).
func (r *Runner) Compiled() bool {
	r.ensureEngine()
	return r.tab != nil
}

// UseCompiled installs a pre-compiled transition table, sharing it with
// other runners of the same protocol (batch trials compile once). It
// must be called before the first Step or Run and the table must have
// been compiled from the runner's protocol.
func (r *Runner) UseCompiled(tab *core.Compiled) {
	if r.engineInit {
		panic("sim: UseCompiled after the engine was initialized")
	}
	if tab != nil && tab.Source() != r.Proto {
		panic(fmt.Sprintf("sim: compiled table of %q installed on a runner of %q", tab.Name(), r.Proto.Name()))
	}
	r.initEngine(tab)
}

// ensureEngine selects the execution path on first use: it compiles the
// protocol (unless Interpret is set, the state space is oversized, or
// compilation fails validation) and builds the configuration census.
func (r *Runner) ensureEngine() {
	if r.engineInit {
		return
	}
	var tab *core.Compiled
	if !r.Interpret && r.Proto.States() <= maxCompiledStates {
		tab, _ = core.Compile(r.Proto)
	}
	r.initEngine(tab)
}

func (r *Runner) initEngine(tab *core.Compiled) {
	r.engineInit = true
	r.lp, _ = r.Proto.(core.LeaderProtocol)
	if r.Interpret || tab == nil {
		return
	}
	census, err := core.NewCensus(tab, r.Cfg)
	if err != nil {
		// Configuration outside the declared state space: stay on the
		// interface path, which imposes no such contract.
		return
	}
	r.tab, r.census = tab, census
	r.rnd, _ = r.Sched.(*sched.Random)
	if r.Obs != nil {
		r.Obs.CompileRules(tab)
	}
}

// Step executes one interaction and reports whether it was non-null.
func (r *Runner) Step() bool {
	if !r.engineInit { // branch instead of a call: ensureEngine is over the inline budget
		r.ensureEngine()
	}
	var pair core.Pair
	if r.rnd != nil {
		pair = r.rnd.Next()
	} else {
		pair = r.Sched.Next()
	}
	var changed bool
	if r.tab != nil {
		changed = r.applyCompiled(pair)
	} else if r.Obs == nil {
		changed = core.ApplyPair(r.Proto, r.Cfg, pair)
	} else {
		changed = r.observedApply(pair)
	}
	if r.OnStep != nil {
		r.OnStep(trace.Event{Step: r.steps, Pair: pair, NonNull: changed})
	}
	r.steps++
	if changed {
		r.nonNull++
		r.quiet = 0
	} else {
		r.quiet++
	}
	return changed
}

// applyCompiled applies one pair through the table, keeping the census
// in sync and feeding the observer when one is attached.
func (r *Runner) applyCompiled(pair core.Pair) bool {
	if pair.A >= 0 && pair.B >= 0 {
		m := r.Cfg.Mobile
		x, y := m[pair.A], m[pair.B]
		idx := r.tab.Idx(x, y)
		x2, y2 := r.tab.At(idx)
		changed := x2 != x || y2 != y
		if changed {
			m[pair.A], m[pair.B] = x2, y2
			r.census.Apply(x, y, x2, y2)
		}
		if r.Obs != nil {
			r.Obs.ObserveMobile(pair, x, y, x2, y2, changed)
		}
		return changed
	}
	j := pair.MobilePeer()
	x := r.Cfg.Mobile[j]
	changed := core.ApplyLeader(r.lp, r.Cfg, j)
	if x2 := r.Cfg.Mobile[j]; x2 != x {
		r.census.ApplyOne(x, x2)
	}
	if r.Obs != nil {
		r.Obs.ObserveLeader(pair, x, r.Cfg.Mobile[j], changed)
	}
	return changed
}

// observedApply applies the pair like core.ApplyPair while feeding the
// observer the before/after states for per-rule accounting.
func (r *Runner) observedApply(pair core.Pair) bool {
	if pair.HasLeader() {
		lp, ok := r.Proto.(core.LeaderProtocol)
		if !ok {
			panic(fmt.Sprintf("core: protocol %q has no leader but pair %v involves one", r.Proto.Name(), pair))
		}
		j := pair.MobilePeer()
		x := r.Cfg.Mobile[j]
		changed := core.ApplyLeader(lp, r.Cfg, j)
		r.Obs.ObserveLeader(pair, x, r.Cfg.Mobile[j], changed)
		return changed
	}
	x, y := r.Cfg.Mobile[pair.A], r.Cfg.Mobile[pair.B]
	changed := core.ApplyMobile(r.Proto, r.Cfg, pair.A, pair.B)
	r.Obs.ObserveMobile(pair, x, y, r.Cfg.Mobile[pair.A], r.Cfg.Mobile[pair.B], changed)
	return changed
}

// Silent reports whether the current configuration is terminal, using
// the census counter test on the compiled path (O(1) for the mobile
// side, one pass over the ≤ |Q| occupied states for the leader) and the
// full O(n²) scan on the interpreted path.
func (r *Runner) Silent() bool {
	r.ensureEngine()
	return r.silent()
}

func (r *Runner) silent() bool {
	if r.census != nil {
		return r.census.Silent(r.Cfg.Leader)
	}
	return core.Silent(r.Proto, r.Cfg)
}

func (r *Runner) quietThreshold() int {
	if r.QuietThreshold > 0 {
		return r.QuietThreshold
	}
	n := r.Cfg.N()
	t := 4 * n * n
	if t < 64 {
		t = 64
	}
	return t
}

// Run executes interactions until the configuration is silent or
// maxSteps interactions have been executed, and returns the result.
// Silence is checked initially and then whenever the execution has been
// quiet (all-null) for a full QuietThreshold window, so the reported
// Steps may include a quiet tail of up to one window. When Obs is set,
// Run finishes it (emitting the final progress snapshot and summary
// record) before returning.
func (r *Runner) Run(maxSteps int) Result {
	res := r.run(maxSteps)
	r.finish(res.Converged)
	return res
}

// Observer returns the attached observer (nil when unobserved).
func (r *Runner) Observer() *obs.Observer { return r.Obs }

func (r *Runner) snapshot() Result {
	return Result{Steps: r.steps, NonNull: r.nonNull, Final: r.Cfg}
}

func (r *Runner) quietStreak() int { return r.quiet }

func (r *Runner) finish(converged bool) {
	if r.Obs != nil {
		r.Obs.Finish(converged)
	}
}

func (r *Runner) fired() []fault.Fired {
	if r.Inject == nil {
		return nil
	}
	return r.Inject.Fired()
}

func (r *Runner) run(maxSteps int) Result {
	r.ensureEngine()
	if r.Inject != nil {
		return r.runFault(maxSteps)
	}
	if r.silent() {
		return Result{Converged: true, Steps: r.steps, NonNull: r.nonNull, Final: r.Cfg}
	}
	converged := r.advance(maxSteps) || r.silent()
	return Result{Converged: converged, Steps: r.steps, NonNull: r.nonNull, Final: r.Cfg}
}

// advance executes interactions until bound interactions have run in
// total or a silence check — made whenever the quiet streak completes a
// full QuietThreshold window — succeeds, which it reports. It takes the
// fused loop whenever the runner is compiled over a random scheduler
// without an OnStep hook, and steps one interaction at a time
// otherwise.
func (r *Runner) advance(bound int) bool {
	if r.tab != nil && r.rnd != nil && r.OnStep == nil {
		return r.runCompiled(bound)
	}
	threshold := r.quietThreshold()
	for r.steps < bound {
		r.Step()
		if r.quiet > 0 && r.quiet%threshold == 0 && r.silent() {
			return true
		}
	}
	return false
}

// runCompiled is the fused hot loop: scheduler draw, table lookup and
// census update in one allocation-free loop with the counters kept in
// locals, observed or not. It must preserve the exact control flow of
// the per-step path — same silence-check points, same counter
// semantics — so that compiled and interpreted runs of one seed yield
// identical Results and journals (the differential tests assert this).
// An attached observer is fed through an obs.Chunk that folds at every
// progress boundary, at bound and at silence.
func (r *Runner) runCompiled(bound int) bool {
	var (
		threshold = r.quietThreshold()
		tab       = r.tab
		cs        = r.census
		rnd       = r.rnd
		m         = r.Cfg.Mobile
		o         = r.Obs
		oc        obs.Chunk
		steps     = r.steps
		nonNull   = r.nonNull
		quiet     = r.quiet
		silent    = false
	)
	if o != nil {
		o.CompileRules(tab)
	}
	for steps < bound && !silent {
		end := bound
		if o != nil {
			oc = o.Begin()
			end = steps + oc.Room(bound-steps)
		}
		for steps < end {
			pair := rnd.Next()
			var changed bool
			if pair.A >= 0 && pair.B >= 0 {
				x, y := m[pair.A], m[pair.B]
				idx := tab.Idx(x, y)
				x2, y2 := tab.At(idx)
				if changed = x2 != x || y2 != y; changed {
					m[pair.A], m[pair.B] = x2, y2
					cs.Apply(x, y, x2, y2)
					if o != nil {
						oc.Rule(idx)
					}
				}
			} else {
				j := pair.MobilePeer()
				x := m[j]
				changed = core.ApplyLeader(r.lp, r.Cfg, j)
				x2 := m[j]
				if x2 != x {
					cs.ApplyOne(x, x2)
				}
				if o != nil && changed {
					oc.Fire(obs.RuleKey{Leader: true, X: x, X2: x2})
				}
			}
			if o != nil {
				oc.Pair(pair)
				oc.Step(changed)
			}
			steps++
			if changed {
				nonNull++
				quiet = 0
			} else {
				quiet++
				if quiet%threshold == 0 && cs.Silent(r.Cfg.Leader) {
					silent = true
					break
				}
			}
		}
		if o != nil {
			oc.Fold()
		}
	}
	r.steps, r.nonNull, r.quiet = steps, nonNull, quiet
	return silent
}

// UniformConfig builds the protocol's intended starting configuration
// for n mobile agents: the uniform initial mobile state when the
// protocol declares one (state 0 otherwise), and the initialized leader
// when the protocol has one.
func UniformConfig(p core.Protocol, n int) *core.Config {
	var s core.State
	if up, ok := p.(core.UniformInitProtocol); ok {
		s = up.InitMobile()
	}
	return core.NewConfig(n, s).WithLeader(core.InitialLeader(p))
}

// ArbitraryConfig builds an adversarially initialized configuration: all
// mobile states drawn by the protocol's RandomMobile, and — when the
// protocol supports arbitrary leader initialization — a random leader
// state; otherwise the initialized leader.
func ArbitraryConfig(p core.ArbitraryInitProtocol, n int, r *rand.Rand) *core.Config {
	c := core.NewConfig(n, 0)
	for i := range c.Mobile {
		c.Mobile[i] = p.RandomMobile(r)
	}
	switch lp := core.Protocol(p).(type) {
	case core.ArbitraryLeaderProtocol:
		c.Leader = lp.RandomLeader(r)
	case core.LeaderProtocol:
		c.Leader = lp.InitLeader()
	}
	return c
}

// CheckStart reports whether StartTrial accepts an initialization key
// for protocol p on the chosen engine, without building anything.
func CheckStart(p core.Protocol, initKey string, count bool) error {
	switch initKey {
	case "zero", "uniform":
		return nil
	case "arbitrary":
		if count {
			return fmt.Errorf("init %q is not count-representable (zero | uniform)", initKey)
		}
		if _, ok := p.(core.ArbitraryInitProtocol); !ok {
			return fmt.Errorf("protocol %q does not support arbitrary initialization", p.Name())
		}
		return nil
	default:
		return fmt.Errorf("unknown init %q (zero | uniform | arbitrary)", initKey)
	}
}

// StartTrial builds a trial's starting configuration for an
// initialization key — the one table of init keys — on either engine:
// an agent array (Trial.Cfg), or with count set a census (Trial.Count).
// "zero" puts every agent in state 0 and "uniform" in the protocol's
// uniform initial state (UniformConfig); both are exchangeable, so the
// count engine represents them. "arbitrary" draws every state from
// prng.New(seed) (ArbitraryConfig) and has no census. Keys CheckStart
// rejects fail with its error.
func StartTrial(p core.Protocol, n int, initKey string, count bool, seed int64) (Trial, error) {
	if err := CheckStart(p, initKey, count); err != nil {
		return Trial{}, err
	}
	switch initKey {
	case "zero":
		if count {
			cc := core.NewCountConfig(p.States())
			cc.Counts[0] = n
			cc.Leader = core.InitialLeader(p)
			return Trial{Count: cc}, nil
		}
		return Trial{Cfg: core.NewConfig(n, 0).WithLeader(core.InitialLeader(p))}, nil
	case "uniform":
		if count {
			return Trial{Count: UniformCountConfig(p, n)}, nil
		}
		return Trial{Cfg: UniformConfig(p, n)}, nil
	default: // "arbitrary"
		return Trial{Cfg: ArbitraryConfig(p.(core.ArbitraryInitProtocol), n, prng.New(seed))}, nil
	}
}

// corruptScratch pools the index slices of Corrupt so repeated fault
// injections (the recovery sweeps) do not reallocate them.
var corruptScratch = sync.Pool{New: func() any { return new([]int) }}

// Corrupt injects a transient fault: it overwrites the states of k
// distinct randomly chosen mobile agents with arbitrary states, and —
// when corruptLeader is set and the protocol tolerates it — replaces the
// leader state with an arbitrary one. It panics if k exceeds the
// population size or if corruptLeader is requested for a protocol
// without RandomLeader support.
//
// The k victims are chosen by a partial Fisher–Yates shuffle over a
// pooled index slice: k swaps and k draws, where the previous
// implementation permuted (and allocated) all n indices to keep k.
func Corrupt(p core.ArbitraryInitProtocol, c *core.Config, r *rand.Rand, k int, corruptLeader bool) {
	n := c.N()
	if k > n {
		panic(fmt.Sprintf("sim: cannot corrupt %d of %d agents", k, n))
	}
	idxp := corruptScratch.Get().(*[]int)
	idx := *idxp
	if cap(idx) < n {
		idx = make([]int, n)
	}
	idx = idx[:n]
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		c.Mobile[idx[i]] = p.RandomMobile(r)
	}
	*idxp = idx
	corruptScratch.Put(idxp)
	if corruptLeader {
		alp, ok := core.Protocol(p).(core.ArbitraryLeaderProtocol)
		if !ok {
			panic(fmt.Sprintf("sim: protocol %q does not support leader corruption", p.Name()))
		}
		c.Leader = alp.RandomLeader(r)
	}
}
