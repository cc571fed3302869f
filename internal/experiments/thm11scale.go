package experiments

import (
	"fmt"
	"io"

	"popnaming/internal/adversary"
	"popnaming/internal/naming"
	"popnaming/internal/prng"
	"popnaming/internal/report"
	"popnaming/internal/sim"
)

// Thm11Point is one instance of the Theorem 11 scaling experiment.
type Thm11Point struct {
	P int
	// GlobalPDefeated: the greedy adversary (under enforced weak
	// fairness) prevented the P-state Protocol 3 from converging at
	// N = P within the budget.
	GlobalPDefeated bool
	// GlobalPForced is the fraction of fairness-preempted steps in that
	// run.
	GlobalPForced float64
	// SelfStabSteps is how quickly the P+1-state Protocol 2 converged
	// under the SAME adversary (0 if it failed).
	SelfStabSteps int
	// Budget is the adversarial step budget.
	Budget int
}

// Thm11Scaling is experiment E18: Theorem 11 says some weakly fair
// execution defeats every P-state symmetric naming protocol at N = P.
// The model checker exhibits such executions exactly for P <= 4; this
// experiment scales the evidence with a state-aware greedy adversary
// under mechanically enforced weak fairness, and contrasts it with the
// P+1-state Protocol 2, which converges under the same adversary (as
// Proposition 16 requires of every weakly fair execution).
func Thm11Scaling(maxP int, budget int, seed int64) []Thm11Point {
	if budget == 0 {
		budget = 500_000
	}
	var out []Thm11Point
	for p := 3; p <= maxP; p++ {
		pt := Thm11Point{P: p, Budget: budget}

		gp := naming.NewGlobalP(p)
		r := prng.New(seed + int64(p))
		cfg := sim.ArbitraryConfig(gp, p, r)
		run := adversary.NewRunner(gp, cfg, adversary.NewGreedyNaming(gp))
		silent := run.Run(budget)
		pt.GlobalPDefeated = !silent && !cfg.ValidNaming()
		pt.GlobalPForced = float64(run.Forced()) / float64(run.Steps())

		ss := naming.NewSelfStab(p)
		cfg2 := sim.ArbitraryConfig(ss, p, r)
		run2 := adversary.NewRunner(ss, cfg2, adversary.NewGreedyNaming(ss))
		if run2.Run(budget) && cfg2.ValidNaming() {
			pt.SelfStabSteps = run2.Steps()
		}
		out = append(out, pt)
	}
	return out
}

// RenderThm11 prints E18.
func RenderThm11(w io.Writer, points []Thm11Point) {
	tab := report.NewTable("E18 — Theorem 11 beyond model-checkable sizes (greedy adversary, enforced weak fairness, N = P)",
		"P", "P-state Protocol 3 defeated", "forced-step fraction", "P+1-state Protocol 2 converged in", "budget")
	for _, p := range points {
		conv := "FAILED"
		if p.SelfStabSteps > 0 {
			conv = fmt.Sprintf("%d steps", p.SelfStabSteps)
		}
		tab.AddRowf(p.P, p.GlobalPDefeated, fmt.Sprintf("%.3f", p.GlobalPForced), conv, p.Budget)
	}
	tab.Render(w)
}
