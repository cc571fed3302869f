package naming_test

import (
	"fmt"

	"popnaming/internal/core"
	"popnaming/internal/counting"
	"popnaming/internal/naming"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

// The one-rule asymmetric protocol (Proposition 12) names any
// population of at most P agents with P states, from any starting
// states, under any fair scheduler.
func ExampleNewAsymmetric() {
	proto := naming.NewAsymmetric(4)
	cfg := core.NewConfigStates(2, 2, 2, 2) // four homonyms
	res := sim.NewRunner(proto, sched.NewRoundRobin(4, false), cfg).Run(100000)
	fmt.Println("converged:", res.Converged)
	fmt.Println("distinct names:", cfg.ValidNaming())
	// Output:
	// converged: true
	// distinct names: true
}

// Protocol 2 (Proposition 16) tolerates arbitrary initialization of
// everything — mobile agents and the base station — at the price of one
// extra state per agent.
func ExampleNewSelfStab() {
	proto := naming.NewSelfStab(3) // bound P = 3, so 4 states per agent
	cfg := core.NewConfigStates(2, 2, 2).
		WithLeader(counting.BST(5, 7)) // garbage leader state
	res := sim.NewRunner(proto, sched.NewRoundRobin(3, true), cfg).Run(100000)
	fmt.Println("converged:", res.Converged)
	fmt.Println("distinct names:", cfg.ValidNaming())
	// Output:
	// converged: true
	// distinct names: true
}

// Proposition 14's protocol is the minimal one when everything can be
// initialized: P states, a counter on the leader.
func ExampleNewInitLeader() {
	proto := naming.NewInitLeader(3)
	cfg := sim.UniformConfig(proto, 3)
	fmt.Println("start:", cfg)
	res := sim.NewRunner(proto, sched.NewRoundRobin(3, true), cfg).Run(100000)
	fmt.Println("converged:", res.Converged, "final:", cfg)
	// Output:
	// start: [2 2 2 | Counter{0}]
	// converged: true final: [0 1 2 | Counter{2}]
}
