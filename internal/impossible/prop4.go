package impossible

import (
	"fmt"

	"popnaming/internal/core"
	"popnaming/internal/naming"
)

// Prop4Report is the outcome of the Proposition 4 demonstration.
type Prop4Report struct {
	// Config is the constructed configuration: a converged-looking
	// leader state paired with a homonym-only population.
	Config *core.Config
	// Stuck reports whether the configuration is silent yet not a valid
	// naming — the contradiction at the heart of Proposition 4's proof.
	Stuck bool
}

func (r Prop4Report) String() string {
	return fmt.Sprintf("prop4 adversary: config %s, stuck silent non-naming: %v", r.Config, r.Stuck)
}

// Prop4Stuck realizes Proposition 4's proof idea on Protocol 3 (the
// paper's P-state symmetric protocol with a leader): no P-state
// symmetric naming protocol can tolerate an arbitrarily initialized
// leader, because the leader state s_e reached at the end of a converged
// execution, combined with a fresh homonym population, must be inert —
// the leader cannot distinguish "converged" from "everyone is a
// homonym". The function builds exactly that configuration for
// Protocol 3 with population P: the leader as it stands after
// convergence (n = P, name_ptr = P) and all mobile agents in the same
// state s. The result is silent but not a naming, witnessing that
// Protocol 3's correctness genuinely depends on leader initialization.
func Prop4Stuck(p int, s core.State) Prop4Report {
	proto := naming.NewGlobalP(p)
	if int(s) < 0 || int(s) >= proto.States() {
		panic(fmt.Sprintf("impossible: state %d out of range [0,%d)", s, proto.States()))
	}
	cfg := core.NewConfig(p, s).WithLeader(naming.PtrBST(p, 0, p))
	// Reduce the homonyms (the proof's reducing sequences): each
	// interacting homonym pair sinks to 0, after which no transition —
	// mobile or leader — applies.
	for i := 0; i+1 < p; i += 2 {
		core.ApplyMobile(proto, cfg, i, i+1)
	}
	stuck := core.Silent(proto, cfg) && !cfg.ValidNaming()
	return Prop4Report{Config: cfg, Stuck: stuck}
}
