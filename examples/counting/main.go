// Anonymous headcount: a base station counts mobile agents it cannot
// distinguish.
//
// Protocol 1 of Beauquier, Burman, Clavière and Sohier (DISC 2015) — the
// substrate of the naming paper's Protocols 2 and 3 — lets an
// initialized base station count up to P arbitrarily initialized,
// anonymous agents under weak fairness, with P states per agent. Naming
// falls out for free whenever N < P (Theorem 15).
//
//	go run ./examples/counting
package main

import (
	"fmt"
	"log"

	"popnaming/internal/counting"
	"popnaming/internal/prng"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

func main() {
	const bound = 16 // the base station knows N <= 16

	proto := counting.New(bound)
	r := prng.New(99)

	for _, n := range []int{3, 7, 12, 16} {
		// The agents' memories are garbage; only the base station is
		// initialized.
		cfg := sim.ArbitraryConfig(proto, n, r)
		res := sim.NewRunner(proto, sched.NewRoundRobin(n, true), cfg).Run(50_000_000)
		if !res.Converged {
			log.Fatalf("N=%d: did not converge: %s", n, res)
		}
		count := proto.Count(cfg)
		fmt.Printf("true N=%2d  counted=%2d  named=%v  (%d interactions)\n",
			n, count, cfg.ValidNaming(), res.Steps)
		if count != n {
			log.Fatalf("miscount: %d != %d", count, n)
		}
	}
	fmt.Println("counts exact for every N <= P; naming guaranteed whenever N < P")
}
