// Quickstart: give unique names to eight anonymous agents.
//
// The asymmetric protocol of Proposition 12 is the simplest space-optimal
// namer in the paper: one rule, (s, s) -> (s, s+1 mod P), no leader, no
// initialization, P states for up to P agents, correct under any fair
// scheduler.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"popnaming/internal/naming"
	"popnaming/internal/prng"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

func main() {
	const p = 8 // at most 8 agents, so 8 states per agent

	proto := naming.NewAsymmetric(p)

	// Agents power on with arbitrary garbage in their name registers.
	cfg := sim.ArbitraryConfig(proto, p, prng.New(42))
	fmt.Println("before:", cfg)

	// Any weakly fair interaction pattern works; uniform-random meetings
	// model unpredictable mobility.
	runner := sim.NewRunner(proto, sched.NewRandom(p, false, 42), cfg)
	res := runner.Run(1_000_000)
	if !res.Converged {
		log.Fatalf("did not converge: %s", res)
	}

	fmt.Println("after: ", cfg)
	fmt.Printf("unique names: %v, in %d pairwise interactions\n", cfg.ValidNaming(), res.Steps)
}
