// Leader election from naming: the by-product the paper's introduction
// describes.
//
// With exact knowledge of the population size N, the one-rule asymmetric
// naming protocol (Proposition 12 / Cai-Izumi-Wada) self-stabilizes to a
// permutation of {0..N-1}; crowning the holder of state 0 gives
// self-stabilizing leader election with exactly N states — which is
// optimal, and which breaks as soon as the size knowledge is wrong, as
// the second half of the demo shows.
//
//	go run ./examples/leaderelection
package main

import (
	"fmt"
	"log"

	"popnaming/internal/core"
	"popnaming/internal/election"
	"popnaming/internal/prng"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

func main() {
	const n = 9
	proto := election.New(n)
	r := prng.New(5)

	// Arbitrary initial states — maybe several self-declared leaders,
	// maybe none.
	cfg := proto.RandomConfig(n, r)
	fmt.Printf("boot: %s (leaders at %v)\n", cfg, election.Leaders(cfg))

	res := sim.NewRunner(proto, sched.NewRandom(n, false, 6), cfg).Run(5_000_000)
	if !res.Converged || !election.Elected(cfg) {
		log.Fatalf("election failed: %s", res)
	}
	fmt.Printf("elected: agent %d after %d interactions -> %s\n",
		election.Leaders(cfg)[0], res.Steps, cfg)

	// Crash-recover three times; the survivor set re-elects each time.
	for round := 1; round <= 3; round++ {
		for i := range cfg.Mobile {
			if r.IntN(3) == 0 {
				cfg.Mobile[i] = core.State(r.IntN(n))
			}
		}
		res = sim.NewRunner(proto, sched.NewRandom(n, false, int64(round)), cfg).Run(5_000_000)
		if !res.Converged || !election.Elected(cfg) {
			log.Fatalf("round %d: re-election failed", round)
		}
		fmt.Printf("after fault %d: leader is agent %d\n", round, election.Leaders(cfg)[0])
	}

	// The fine print: the same protocol with WRONG size knowledge can
	// stabilize leaderless.
	wrong := election.New(n + 2)                             // believes there are 11 agents
	stuck := core.NewConfigStates(1, 2, 3, 4, 5, 6, 7, 8, 9) // distinct, no 0
	if core.Silent(wrong, stuck) && !election.Elected(stuck) {
		fmt.Println("with P != N the protocol can stabilize with NO leader —")
		fmt.Println("exact knowledge of N is necessary (Cai-Izumi-Wada), as the paper recounts")
	}
}
