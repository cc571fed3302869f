// Package adversary provides state-aware adversarial scheduling under a
// mechanical weak-fairness guarantee. Ordinary schedulers (internal/
// sched) are blind; an Adversary sees the current configuration and
// picks the interaction it likes least for the protocol. The Runner
// keeps the resulting infinite execution weakly fair by construction:
// every unordered pair carries a deadline, and a pair that has waited a
// full window is scheduled by force before the adversary chooses again.
//
// This turns existence proofs into search: Theorem 11 says SOME weakly
// fair execution defeats every P-state symmetric naming protocol at
// N = P; the model checker finds such executions exactly for P <= 4, and
// the greedy adversary exhibits them empirically far beyond that (see
// the Theorem 11 scaling experiment).
package adversary

import (
	"popnaming/internal/core"
	"popnaming/internal/trace"
)

// Adversary picks, given the current configuration, the next ordered
// pair to schedule from the offered candidates.
type Adversary interface {
	// Name identifies the strategy in reports.
	Name() string
	// Pick selects one of the candidate pairs (all distinct ordered
	// pairs of the population). The slice must not be retained.
	Pick(cfg *core.Config, candidates []core.Pair) core.Pair
}

// Runner drives a protocol under an adversary while enforcing weak
// fairness: any unordered pair unscheduled for Window steps preempts
// the adversary's choice.
type Runner struct {
	Proto core.Protocol
	Cfg   *core.Config
	Adv   Adversary
	// Window is the fairness bound in steps (default: 8 x number of
	// unordered pairs).
	Window int
	// OnStep, when non-nil, receives every interaction.
	OnStep func(trace.Event)

	candidates []core.Pair
	// lastSeen, parallel to candidates, holds the step count after
	// each pair's last interaction; both orderings of an unordered
	// pair share one value, so fairness is per unordered pair.
	lastSeen []int
	lo       int // lowest agent index: -1 with a leader, else 0
	steps    int
	forced   int
}

// NewRunner returns an adversarial runner.
func NewRunner(p core.Protocol, cfg *core.Config, adv Adversary) *Runner {
	r := &Runner{Proto: p, Cfg: cfg, Adv: adv}
	if core.HasLeader(p) {
		r.lo = -1
	}
	for a := r.lo; a < cfg.N(); a++ {
		for b := r.lo; b < cfg.N(); b++ {
			if a != b {
				r.candidates = append(r.candidates, core.Pair{A: a, B: b})
			}
		}
	}
	r.lastSeen = make([]int, len(r.candidates))
	if r.Window == 0 {
		r.Window = 8 * len(r.candidates) / 2 // 8 x unordered pairs
	}
	return r
}

// index returns the position of an ordered pair in candidates, which
// lists pairs in row-major order without the diagonal.
func (r *Runner) index(p core.Pair) int {
	a, b := p.A-r.lo, p.B-r.lo
	if b > a {
		b--
	}
	return a*(r.Cfg.N()-r.lo-1) + b
}

// Steps returns the number of interactions executed.
func (r *Runner) Steps() int { return r.steps }

// Forced returns how many interactions were fairness preemptions rather
// than adversary choices.
func (r *Runner) Forced() int { return r.forced }

// Step executes one interaction: an overdue pair if any, otherwise the
// adversary's pick. It reports whether any state changed.
func (r *Runner) Step() bool {
	pair, forced := r.next()
	if forced {
		r.forced++
	}
	changed := core.ApplyPair(r.Proto, r.Cfg, pair)
	if r.OnStep != nil {
		r.OnStep(trace.Event{Step: r.steps, Pair: pair, NonNull: changed})
	}
	r.steps++
	r.lastSeen[r.index(pair)] = r.steps
	r.lastSeen[r.index(core.Pair{A: pair.B, B: pair.A})] = r.steps
	return changed
}

func (r *Runner) next() (core.Pair, bool) {
	// Most-overdue pair past the window preempts; among equally
	// overdue pairs the first candidate wins, so the choice is
	// deterministic (and is the ordering with the lower index first).
	worst := -1
	worstWait := -1
	for i, last := range r.lastSeen {
		if wait := r.steps - last; wait >= r.Window && wait > worstWait {
			worst, worstWait = i, wait
		}
	}
	if worst >= 0 {
		return r.candidates[worst], true
	}
	return r.Adv.Pick(r.Cfg, r.candidates), false
}

// Run executes maxSteps interactions (or stops early at silence) and
// reports whether the final configuration is silent.
func (r *Runner) Run(maxSteps int) bool {
	quiet := 0
	threshold := 4 * r.Cfg.N() * r.Cfg.N()
	if threshold < 64 {
		threshold = 64
	}
	for r.steps < maxSteps {
		if r.Step() {
			quiet = 0
		} else {
			quiet++
		}
		if quiet > 0 && quiet%threshold == 0 && core.Silent(r.Proto, r.Cfg) {
			return true
		}
	}
	return core.Silent(r.Proto, r.Cfg)
}

// NewGreedy returns a one-step look-ahead adversary: it applies each
// candidate pair to a scratch copy of the configuration, scores the
// successor with the given progress measure, and picks the minimum
// (breaking ties in favour of null transitions, which waste the
// protocol's steps).
func NewGreedy(p core.Protocol, label string, score func(*core.Config) float64) Adversary {
	if label == "" {
		label = "greedy"
	}
	return &lookahead{proto: p, label: label, score: score}
}

// NewGreedyNaming returns the canonical anti-naming adversary for a
// protocol: one-step look-ahead minimizing the number of distinct
// mobile states — it prefers interactions that create or preserve
// homonyms.
func NewGreedyNaming(p core.Protocol) Adversary {
	return NewGreedy(p, "greedy-anti-naming", func(c *core.Config) float64 {
		return float64(DistinctStates(c))
	})
}

// lookahead applies each candidate to a scratch copy and scores the
// successor.
type lookahead struct {
	proto core.Protocol
	label string
	score func(*core.Config) float64
}

// Name implements Adversary.
func (l *lookahead) Name() string { return l.label }

// Pick implements Adversary.
func (l *lookahead) Pick(cfg *core.Config, candidates []core.Pair) core.Pair {
	if len(candidates) == 0 {
		panic("adversary: no candidate pairs")
	}
	best := candidates[0]
	bestScore := 0.0
	haveBest := false
	for _, c := range candidates {
		next := cfg.Clone()
		changed := core.ApplyPair(l.proto, next, c)
		s := l.score(next)
		if !changed {
			// Null transitions are maximally unhelpful to the
			// protocol: tie-break in their favour.
			s -= 0.5
		}
		if !haveBest || s < bestScore {
			best, bestScore, haveBest = c, s, true
		}
	}
	return best
}

// DistinctStates counts distinct mobile states — the naming progress
// measure.
func DistinctStates(c *core.Config) int {
	seen := make(map[core.State]bool, len(c.Mobile))
	for _, s := range c.Mobile {
		seen[s] = true
	}
	return len(seen)
}
