package naming

import (
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/explore"
	"popnaming/internal/fairness"
	"popnaming/internal/prng"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

func TestSymGlobalRules(t *testing.T) {
	pr := NewSymGlobal(3) // states 0..3, blank = 3
	cases := []struct {
		x, y, wx, wy core.State
	}{
		{3, 3, 1, 1}, // rule 3
		{0, 0, 3, 3}, // rule 2
		{2, 2, 3, 3}, // rule 2
		{1, 3, 1, 2}, // rule 1
		{3, 1, 2, 1}, // mirror of rule 1
		{2, 3, 2, 0}, // rule 1 with wrap: 2+1 mod 3 = 0
		{0, 1, 0, 1}, // distinct non-blank: null
		{1, 2, 1, 2}, // null
	}
	for _, c := range cases {
		gx, gy := pr.Mobile(c.x, c.y)
		if gx != c.wx || gy != c.wy {
			t.Errorf("Mobile(%d,%d) = (%d,%d), want (%d,%d)", c.x, c.y, gx, gy, c.wx, c.wy)
		}
	}
}

// TestSymGlobalSelfStabilizes: Proposition 13 — from arbitrary starts,
// no leader, under random (globally fair) scheduling, N > 2.
func TestSymGlobalSelfStabilizes(t *testing.T) {
	r := prng.New(21)
	for p := 3; p <= 8; p++ {
		pr := NewSymGlobal(p)
		for n := 3; n <= p; n++ {
			for trial := 0; trial < 5; trial++ {
				cfg := sim.ArbitraryConfig(pr, n, r)
				res := sim.NewRunner(pr, sched.NewRandom(n, false, int64(p*1000+n*10+trial)), cfg).Run(20_000_000)
				if !res.Converged {
					t.Fatalf("P=%d N=%d trial %d: %s", p, n, trial, res)
				}
				if !cfg.ValidNaming() {
					t.Fatalf("P=%d N=%d: invalid naming %s", p, n, cfg)
				}
				for _, s := range cfg.Mobile {
					if int(s) >= p {
						t.Fatalf("P=%d N=%d: final name %d is the blank state: %s", p, n, s, cfg)
					}
				}
			}
		}
	}
}

// TestSymGlobalModelCheckGlobal proves Proposition 13 exhaustively for
// P = N in {3, 4, 5}: from every one of the (P+1)^N starts, every
// globally fair execution converges to a naming with P+1 states. It
// also covers every N in (2, P] for each bound.
func TestSymGlobalModelCheckGlobal(t *testing.T) {
	for p := 3; p <= 5; p++ {
		pr := NewSymGlobal(p)
		for n := 3; n <= p; n++ {
			g, err := explore.Build(pr, explore.AllConfigs(pr.States(), n), explore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			verdict := g.CheckGlobal(explore.Naming)
			if !verdict.OK {
				t.Fatalf("P=%d N=%d: %s", p, n, verdict)
			}
			t.Logf("Proposition 13 verified at P=%d, N=%d over %d configurations", p, n, verdict.Explored)
		}
	}
}

// TestSymGlobalFailsWeakFairness: as a symmetric leaderless protocol it
// cannot beat Proposition 1 — the model checker finds a weakly fair
// non-converging lasso.
func TestSymGlobalFailsWeakFairness(t *testing.T) {
	pr := NewSymGlobal(3)
	g, err := explore.Build(pr, explore.AllConfigs(pr.States(), 4), explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	verdict := g.CheckWeak(explore.Naming)
	if verdict.OK {
		t.Fatal("SymGlobal unexpectedly passes the weak-fairness check (contradicts Proposition 1)")
	}
	lasso, err := g.ExtractLasso(verdict.BadSCC)
	if err != nil {
		t.Fatal(err)
	}
	replayLassoAndAudit(t, pr, g, verdict, lasso, 4)
}

// TestSymGlobalFailsAtN2: the N > 2 requirement of Proposition 13 is
// real — with two agents the component {(P,P), (1,1)} is a terminal
// cycle even under global fairness.
func TestSymGlobalFailsAtN2(t *testing.T) {
	pr := NewSymGlobal(3)
	blank := pr.Blank()
	start := core.NewConfigStates(blank, blank)
	g, err := explore.Build(pr, []*core.Config{start}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	verdict := g.CheckGlobal(explore.Naming)
	if verdict.OK {
		t.Fatal("SymGlobal unexpectedly names N=2 from the all-blank start")
	}
	t.Logf("N=2 witness: %s", verdict)
}

// TestSymGlobalTerminalHasNoBlank: silence implies no blank-state agent
// remains (any blank agent still has an applicable rule).
func TestSymGlobalTerminalHasNoBlank(t *testing.T) {
	pr := NewSymGlobal(4)
	blank := pr.Blank()
	cfgs := []*core.Config{
		core.NewConfigStates(0, 1, blank),
		core.NewConfigStates(blank, blank, blank),
		core.NewConfigStates(0, 1, 2),
	}
	wantSilent := []bool{false, false, true}
	for i, c := range cfgs {
		if got := core.Silent(pr, c); got != wantSilent[i] {
			t.Errorf("config %s: Silent = %v, want %v", c, got, wantSilent[i])
		}
	}
}

// replayLassoAndAudit replays a lasso schedule through the simulator,
// asserting that (1) the schedule is weakly fair over a finite horizon,
// (2) the configuration never satisfies naming once past the prefix...
// more precisely naming never STABILIZES: the configuration after each
// cycle repetition is identical and the cycle changes states or keeps
// homonyms.
func replayLassoAndAudit(t *testing.T, pr core.Protocol, g *explore.Graph, verdict explore.Verdict, lasso explore.Lasso, n int) {
	t.Helper()
	const repeats = 12
	schedule := lasso.Schedule(repeats)
	a := fairness.AuditPairs(schedule[len(lasso.Prefix):], n, core.HasLeader(pr))
	if len(a.Missing) > 0 {
		t.Fatalf("lasso cycle not weakly fair, missing pairs: %v", a.Missing)
	}

	cfg := g.Nodes[g.Start[0]].Clone()
	for _, p := range lasso.Prefix {
		core.ApplyPair(pr, cfg, p)
	}
	anchor := cfg.Clone()
	stabilized := true
	for rep := 0; rep < repeats; rep++ {
		namedThroughout := cfg.ValidNaming()
		before := cfg.Clone()
		for _, p := range lasso.Cycle {
			core.ApplyPair(pr, cfg, p)
			if !cfg.ValidNaming() {
				namedThroughout = false
			}
		}
		if !cfg.Equal(before) {
			t.Fatalf("cycle is not configuration-preserving")
		}
		if !namedThroughout || !mobileFrozenDuringCycle(pr, before, lasso.Cycle) {
			stabilized = false
		}
	}
	if !cfg.Equal(anchor) {
		t.Fatal("lasso did not return to its anchor configuration")
	}
	if stabilized {
		t.Fatal("lasso execution stabilized to a naming; not a counterexample")
	}
}

// mobileFrozenDuringCycle reports whether replaying the cycle from cfg
// never changes any mobile state.
func mobileFrozenDuringCycle(pr core.Protocol, cfg *core.Config, cycle []core.Pair) bool {
	c := cfg.Clone()
	orig := cfg.Clone()
	for _, p := range cycle {
		core.ApplyPair(pr, c, p)
		for i := range c.Mobile {
			if c.Mobile[i] != orig.Mobile[i] {
				return false
			}
		}
	}
	return true
}
