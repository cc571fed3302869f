// Self-stabilization demo: naming that survives transient memory faults.
//
// Protocol 2 (Proposition 16) tolerates arbitrary corruption of EVERY
// component — all mobile agents and the base station — and re-converges
// to a valid naming under plain weak fairness, using only one state more
// than the absolute minimum (P+1). This demo converges a population,
// repeatedly smashes random subsets of its memory (base station
// included), and shows recovery each time.
//
//	go run ./examples/selfstabilization
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
	const (
		p = 10 // population bound: 11 states per agent
		n = 10 // actual population
	)
	proto := naming.NewSelfStab(p)
	r := prng.New(7)

	// Nothing is initialized: agents AND base station start arbitrary.
	cfg := sim.ArbitraryConfig(proto, n, r)
	fmt.Println("cold start:", cfg)

	run := func(phase string) {
		res := sim.NewRunner(proto, sched.NewRoundRobin(n, true), cfg).Run(50_000_000)
		if !res.Converged || !cfg.ValidNaming() {
			log.Fatalf("%s: failed to converge: %s", phase, res)
		}
		fmt.Printf("%s: converged in %d interactions -> %s\n", phase, res.Steps, cfg)
	}
	run("initial convergence")

	for fault := 1; fault <= 3; fault++ {
		// A transient fault scrambles a third of the agents and the
		// base station's counters.
		sim.Corrupt(proto, cfg, r, n/3, true)
		fmt.Printf("fault %d injected: %s\n", fault, cfg)
		run(fmt.Sprintf("recovery %d", fault))
	}
	fmt.Println("all faults recovered; names are stable and unique")
}
