// Package oracle implements the constructive interaction schedules
// inside the paper's positive proofs. Global-fairness arguments
// (Propositions 13 and 17) work by exhibiting, from every reachable
// configuration, a finite interaction sequence that completes the
// naming; global fairness then guarantees the protocol eventually
// follows one. This package makes those sequences executable: a
// state-aware "oracle" plays exactly the proof's moves, so the
// protocols converge deterministically — and quickly — at sizes where
// the uniform-random scheduler needs astronomically many interactions
// (the completing sequence has probability about P^-P per attempt).
//
// The oracles double as checked documentation of the proofs: the tests
// drive them from every configuration of small instances and from
// adversarial large ones, verifying the proofs' progress arguments
// (bounded schedule length, no homonym creation in the fill phase)
// along the way.
package oracle

import (
	"fmt"

	"popnaming/internal/core"
	"popnaming/internal/counting"
	"popnaming/internal/naming"
)

// Step is one constructive move: the pair to schedule and the proof
// move it realizes.
type Step struct {
	Pair core.Pair
	// Why tags the proof move: "reduce", "bootstrap-spark",
	// "bootstrap-name", "fill", "jump", "count", "walk".
	Why string
}

// Oracle yields the next constructive move for a configuration, or
// ok = false when the target configuration has been reached.
type Oracle interface {
	Next(cfg *core.Config) (Step, bool)
}

// Drive plays an oracle until it declares completion or the budget is
// exhausted, returning the number of interactions and whether the final
// configuration is silent.
func Drive(p core.Protocol, o Oracle, cfg *core.Config, budget int) (int, bool) {
	steps := 0
	for steps < budget {
		st, ok := o.Next(cfg)
		if !ok {
			return steps, core.Silent(p, cfg)
		}
		core.ApplyPair(p, cfg, st.Pair)
		steps++
	}
	return steps, core.Silent(p, cfg)
}

// SymGlobalOracle plays the Proposition 13 proof for the leaderless
// P+1-state protocol (N > 2):
//
//  1. bootstrap: from configurations with no usable name — all blank,
//     or exactly two bootstrap 1s — apply the proof's rules 3 and 1 to
//     mint the first unique name before re-blanking the spark pair;
//  2. reduce: two non-blank homonyms interact (rule 2, both blank);
//  3. fill: while blanks remain, pick a present name s whose cyclic
//     successor s+1 mod P is absent (a "distant" pair, which exists
//     whenever fewer than P names are in use) and let a blank meet the
//     s-agent: rule 1 names it s+1 without creating homonyms.
//
// The schedule is linear in N: at most one bootstrap (2 moves), N/2
// reductions and one fill per blank.
type SymGlobalOracle struct {
	P *naming.SymGlobal
}

// NewSymGlobal returns the Proposition 13 oracle. Correctness requires
// N > 2, as in the proposition.
func NewSymGlobal(p *naming.SymGlobal) *SymGlobalOracle {
	return &SymGlobalOracle{P: p}
}

// Next implements Oracle.
func (o *SymGlobalOracle) Next(cfg *core.Config) (Step, bool) {
	if cfg.N() < 3 {
		panic(fmt.Sprintf("oracle: Proposition 13 requires N > 2, got N = %d", cfg.N()))
	}
	blank := o.P.Blank()

	// Bootstrap move 2 takes precedence over reduction: right after the
	// spark, the two 1s must name a third agent before re-blanking
	// (otherwise spark/reduce would cycle forever).
	if ones := indicesWith(cfg, 1); len(ones) == 2 && cfg.Count(blank) == cfg.N()-2 {
		return Step{
			Pair: core.Pair{A: ones[0], B: firstWith(cfg, blank)},
			Why:  "bootstrap-name",
		}, true
	}

	// Reduce non-blank homonyms (rule 2).
	if i, j, ok := homonymPair(cfg, blank); ok {
		return Step{Pair: core.Pair{A: i, B: j}, Why: "reduce"}, true
	}

	// Terminal: distinct names, no blanks.
	if cfg.Count(blank) == 0 {
		return Step{}, false
	}

	// Bootstrap move 1: all blank — spark two agents to 1 (rule 3).
	if cfg.Count(blank) == cfg.N() {
		return Step{Pair: core.Pair{A: 0, B: 1}, Why: "bootstrap-spark"}, true
	}

	// Fill a blank with a distant successor name (rule 1).
	s, ok := distantName(cfg, o.P.P(), blank)
	if !ok {
		panic(fmt.Sprintf("oracle: no distant name available in %s", cfg))
	}
	return Step{
		Pair: core.Pair{A: firstWith(cfg, s), B: firstWith(cfg, blank)},
		Why:  "fill",
	}, true
}

// GlobalPOracle plays the Proposition 17 proof for Protocol 3 at full
// population N = P:
//
//  1. reduce: non-zero homonyms sink to 0 (the proof's reduced
//     executions);
//  2. jump / count: while the guess n is below P, the BST meets an
//     agent whose name exceeds n (jumping the U* pointer) or an unnamed
//     agent (advancing it), until n = P;
//  3. walk / fill: the BST meets the agent named exactly name_ptr
//     (advancing the pointer) or, when that name is missing, an unnamed
//     agent (which line 15 renames to the missing value). Once all of
//     0..P-1 are present the walk runs to name_ptr = P and the
//     configuration is silent.
//
// Phase 2 needs about 2^(P-1) count moves (the U* pointer's length —
// inherent to the protocol, not the scheduler); phase 3 needs O(P^2).
type GlobalPOracle struct {
	P *naming.GlobalP
}

// NewGlobalP returns the Proposition 17 oracle. It requires N = P.
func NewGlobalP(p *naming.GlobalP) *GlobalPOracle {
	return &GlobalPOracle{P: p}
}

// Next implements Oracle.
func (o *GlobalPOracle) Next(cfg *core.Config) (Step, bool) {
	p := o.P.P()
	if cfg.N() != p {
		panic(fmt.Sprintf("oracle: GlobalP oracle requires N = P = %d, got N = %d", p, cfg.N()))
	}
	n, ptr := counting.Guess(cfg.Leader), naming.NamePtr(cfg.Leader)

	// 1. Reduce non-zero homonyms.
	if i, j, ok := homonymPair(cfg, 0); ok {
		return Step{Pair: core.Pair{A: i, B: j}, Why: "reduce"}, true
	}

	// 2. Drive the guess to P.
	if n < p {
		for i, s := range cfg.Mobile {
			if int(s) > n {
				return Step{Pair: core.Pair{A: core.LeaderIndex, B: i}, Why: "jump"}, true
			}
		}
		if i := indexWith(cfg, 0); i >= 0 {
			return Step{Pair: core.Pair{A: core.LeaderIndex, B: i}, Why: "count"}, true
		}
		// No homonyms, no zeros, no name above n < P: impossible with
		// N = P agents over P states.
		panic(fmt.Sprintf("oracle: stuck in counting phase at %s", cfg))
	}

	// 3. Pointer walk.
	if ptr < p {
		if i := indexWith(cfg, core.State(ptr)); i >= 0 {
			return Step{Pair: core.Pair{A: core.LeaderIndex, B: i}, Why: "walk"}, true
		}
		if i := indexWith(cfg, 0); i >= 0 {
			return Step{Pair: core.Pair{A: core.LeaderIndex, B: i}, Why: "fill"}, true
		}
		panic(fmt.Sprintf("oracle: pointer %d missing with no unnamed agent in %s", ptr, cfg))
	}

	// name_ptr = P and no homonyms: silent naming reached.
	return Step{}, false
}

// homonymPair finds two agents sharing a non-sentinel state.
func homonymPair(cfg *core.Config, sentinel core.State) (int, int, bool) {
	seen := make(map[core.State]int)
	for i, s := range cfg.Mobile {
		if s == sentinel {
			continue
		}
		if j, ok := seen[s]; ok {
			return j, i, true
		}
		seen[s] = i
	}
	return 0, 0, false
}

func indicesWith(cfg *core.Config, s core.State) []int {
	var out []int
	for i, t := range cfg.Mobile {
		if t == s {
			out = append(out, i)
		}
	}
	return out
}

// indexWith returns the first agent in state s, or -1.
func indexWith(cfg *core.Config, s core.State) int {
	for i, t := range cfg.Mobile {
		if t == s {
			return i
		}
	}
	return -1
}

func firstWith(cfg *core.Config, s core.State) int {
	i := indexWith(cfg, s)
	if i < 0 {
		panic(fmt.Sprintf("oracle: no agent in state %d in %s", s, cfg))
	}
	return i
}

// distantName finds a present non-blank name s whose cyclic successor
// s+1 mod p is absent.
func distantName(cfg *core.Config, p int, blank core.State) (core.State, bool) {
	present := make([]bool, p)
	for _, s := range cfg.Mobile {
		if s != blank {
			present[s] = true
		}
	}
	for s := 0; s < p; s++ {
		if present[s] && !present[(s+1)%p] {
			return core.State(s), true
		}
	}
	return 0, false
}
