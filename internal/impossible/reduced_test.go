package impossible

import (
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/counting"
	"popnaming/internal/naming"
	"popnaming/internal/prng"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

func TestIsReduced(t *testing.T) {
	cases := []struct {
		states []core.State
		sink   core.State
		want   bool
	}{
		{[]core.State{0, 0, 0}, 0, true},  // sink homonyms allowed
		{[]core.State{1, 2, 3}, 0, true},  // all distinct
		{[]core.State{1, 1, 0}, 0, false}, // non-sink homonyms
		{[]core.State{2, 2}, 2, true},     // homonyms in the sink itself
		{[]core.State{}, 0, true},         // empty
	}
	for i, c := range cases {
		if got := IsReduced(core.NewConfigStates(c.states...), c.sink); got != c.want {
			t.Errorf("case %d: IsReduced = %v, want %v", i, got, c.want)
		}
	}
}

// TestReducedInvariant: after every ReducedRunner step the configuration
// is reduced — the Section 3.1 invariant.
func TestReducedInvariant(t *testing.T) {
	const p = 6
	pr := counting.New(p)
	r := prng.New(3)
	cfg := sim.ArbitraryConfig(pr, p, r)
	run := NewReducedRunner(pr, sched.NewRandom(p, true, 3), cfg, 0)
	if !IsReduced(cfg, 0) {
		t.Fatal("starting configuration not reduced after construction")
	}
	for i := 0; i < 20000; i++ {
		run.Step()
		if !IsReduced(cfg, 0) {
			t.Fatalf("step %d left a non-reduced configuration: %s", i, cfg)
		}
	}
}

// TestReducedExecutionStillConverges: Corollary 7 — forcing reductions
// preserves convergence under a weakly fair base schedule.
func TestReducedExecutionStillConverges(t *testing.T) {
	const p = 5
	pr := naming.NewSelfStab(p)
	r := prng.New(4)
	for trial := 0; trial < 10; trial++ {
		cfg := sim.ArbitraryConfig(pr, p, r)
		run := NewReducedRunner(pr, sched.NewRoundRobin(p, true), cfg, 0)
		if !run.Run(10_000_000) {
			t.Fatalf("trial %d: reduced execution did not converge", trial)
		}
		if !cfg.ValidNaming() {
			t.Fatalf("trial %d: invalid naming %s", trial, cfg)
		}
	}
}

// TestReducedCountsReductions: starting from an all-homonym population
// the constructor already performs reductions.
func TestReducedCountsReductions(t *testing.T) {
	pr := counting.New(4)
	cfg := core.NewConfigStates(2, 2, 3, 3).WithLeader(pr.InitLeader())
	run := NewReducedRunner(pr, sched.NewRoundRobin(4, true), cfg, 0)
	if run.Reductions() != 2 {
		t.Fatalf("Reductions = %d, want 2", run.Reductions())
	}
	if got := cfg.Count(0); got != 4 {
		t.Fatalf("expected all agents reduced to the sink, got %s", cfg)
	}
}

// TestReducedPanicsOnNonReducingProtocol: a protocol whose homonyms do
// not sink must be rejected rather than looping.
func TestReducedPanicsOnNonReducingProtocol(t *testing.T) {
	pr := core.NewRuleTable("bad", 3, 3).AddSymmetric(1, 1, 2, 2).AddSymmetric(2, 2, 1, 1)
	cfg := core.NewConfigStates(1, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-reducing homonyms")
		}
	}()
	NewReducedRunner(pr, sched.NewRoundRobin(3, false), cfg, 0)
}
