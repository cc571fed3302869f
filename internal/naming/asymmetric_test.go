package naming

import (
	"testing"
	"testing/quick"

	"popnaming/internal/core"
	"popnaming/internal/explore"
	"popnaming/internal/prng"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

func TestAsymmetricRule(t *testing.T) {
	pr := NewAsymmetric(4)
	cases := []struct {
		x, y, wx, wy core.State
	}{
		{0, 0, 0, 1},
		{3, 3, 3, 0}, // wrap-around
		{1, 2, 1, 2}, // distinct: null
		{2, 1, 2, 1},
	}
	for _, c := range cases {
		gx, gy := pr.Mobile(c.x, c.y)
		if gx != c.wx || gy != c.wy {
			t.Errorf("Mobile(%d,%d) = (%d,%d), want (%d,%d)", c.x, c.y, gx, gy, c.wx, c.wy)
		}
	}
}

// TestConvergesUnderBothFairness: Proposition 12 claims correctness
// under weak AND global fairness, from arbitrary starts, leaderless.
func TestAsymmetricConvergesUnderBothFairness(t *testing.T) {
	r := prng.New(11)
	for p := 2; p <= 10; p++ {
		pr := NewAsymmetric(p)
		for n := 2; n <= p; n++ {
			for _, mk := range []func() sched.Scheduler{
				func() sched.Scheduler { return sched.NewRoundRobin(n, false) },
				func() sched.Scheduler { return sched.NewRandom(n, false, int64(p*100+n)) },
			} {
				cfg := sim.ArbitraryConfig(pr, n, r)
				res := sim.NewRunner(pr, mk(), cfg).Run(5_000_000)
				if !res.Converged {
					t.Fatalf("P=%d N=%d %s: %s", p, n, mk().Name(), res)
				}
				if !cfg.ValidNaming() {
					t.Fatalf("P=%d N=%d: invalid naming %s", p, n, cfg)
				}
			}
		}
	}
}

// TestPotentialStrictlyDecreases checks the proof's core argument: on
// every non-null transition the (holes, hole distance) potential
// strictly decreases lexicographically.
func TestPotentialStrictlyDecreases(t *testing.T) {
	const p, n = 6, 6
	pr := NewAsymmetric(p)
	r := prng.New(12)
	for trial := 0; trial < 50; trial++ {
		cfg := sim.ArbitraryConfig(pr, n, r)
		s := sched.NewRandom(n, false, int64(trial))
		for step := 0; step < 10000; step++ {
			before := pr.Potential(cfg)
			pair := s.Next()
			if core.ApplyPair(pr, cfg, pair) {
				after := pr.Potential(cfg)
				if after >= before {
					t.Fatalf("trial %d step %d: potential %d -> %d on non-null transition (config %s)",
						trial, step, before, after, cfg)
				}
			} else if pr.Potential(cfg) != before {
				t.Fatalf("null transition changed the potential")
			}
		}
	}
}

// TestPotentialBound: the potential is bounded by its paper value
// (P, P(P-1)) — encoded, holes*(P(P-1)+1)+dist <= P*(P(P-1)+1)+P(P-1).
func TestPotentialBound(t *testing.T) {
	const p = 5
	pr := NewAsymmetric(p)
	bound := p*(p*(p-1)+1) + p*(p-1)
	prop := func(raw [5]uint8) bool {
		states := make([]core.State, len(raw))
		for i, v := range raw {
			states[i] = core.State(int(v) % p)
		}
		c := core.NewConfigStates(states...)
		pot := pr.Potential(c)
		return pot >= 0 && pot <= bound
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHolesAndDistance(t *testing.T) {
	pr := NewAsymmetric(4)
	cases := []struct {
		states []core.State
		holes  int
		dist   int
	}{
		{[]core.State{0, 1, 2, 3}, 0, 0}, // no holes
		{[]core.State{0, 0, 2, 3}, 1, 4}, // hole at 1: dists 1,1,2*... 0->1:1, 0->1:1, 2->(3 no,0 no)-> 2:3? see below
		{[]core.State{0, 0}, 3, 2},       // holes 1,2,3; dists: 0->1 =1 each
		{[]core.State{2}, 3, 1},          // holes 0,1,3; dist 2->3 = 1
	}
	// Recompute case 1 by hand: states {0,0,2,3}, P=4, hole = {1}.
	// dist(0)=1, dist(0)=1, dist(2): 2->3 present, 2->0 present, 2->1
	// hole at j=3; dist(3): 3->0 present, 3->1 hole at j=2. Total 1+1+3+2=7.
	cases[1].dist = 7
	for i, c := range cases {
		cfg := core.NewConfigStates(c.states...)
		if got := pr.Holes(cfg); got != c.holes {
			t.Errorf("case %d: Holes = %d, want %d", i, got, c.holes)
		}
		if got := pr.HoleDistance(cfg); got != c.dist {
			t.Errorf("case %d: HoleDistance = %d, want %d", i, got, c.dist)
		}
	}
}

// TestAsymmetricModelCheckWeak proves Proposition 12 exhaustively for
// P = 3: from every start, every weakly fair execution converges to a
// naming. This is the positive side of Table 1's asymmetric column.
func TestAsymmetricModelCheckWeak(t *testing.T) {
	const p = 3
	pr := NewAsymmetric(p)
	for n := 2; n <= p; n++ {
		starts := allLeaderlessStarts(p, n)
		g, err := explore.Build(pr, starts, explore.Options{MaxNodes: 1 << 18})
		if err != nil {
			t.Fatal(err)
		}
		if verdict := g.CheckWeak(explore.Naming); !verdict.OK {
			t.Fatalf("N=%d: %s", n, verdict)
		}
		if verdict := g.CheckGlobal(explore.Naming); !verdict.OK {
			t.Fatalf("N=%d (global): %s", n, verdict)
		}
	}
}

// TestAsymmetricExactlyPStatesNeeded: with P agents the protocol fills
// every state, so the final names are a permutation of [0, P).
func TestAsymmetricFullPopulationUsesAllStates(t *testing.T) {
	const p = 7
	pr := NewAsymmetric(p)
	r := prng.New(13)
	cfg := sim.ArbitraryConfig(pr, p, r)
	res := sim.NewRunner(pr, sched.NewRoundRobin(p, false), cfg).Run(5_000_000)
	if !res.Converged {
		t.Fatal(res)
	}
	seen := make([]bool, p)
	for _, s := range cfg.Mobile {
		seen[s] = true
	}
	for st, ok := range seen {
		if !ok {
			t.Errorf("state %d unused in full population: %s", st, cfg)
		}
	}
}

func TestAsymmetricDegenerateP1(t *testing.T) {
	pr := NewAsymmetric(1)
	if !pr.Symmetric() {
		t.Error("P=1 instance has only null rules and must report symmetric")
	}
	if err := core.CheckProtocol(pr); err != nil {
		t.Fatal(err)
	}
	cfg := core.NewConfig(1, 0)
	if !core.Silent(pr, cfg) {
		t.Error("single-agent P=1 config should be silent")
	}
}

// allLeaderlessStarts enumerates every configuration of n agents over
// q = States(P) states for the leaderless protocols.
func allLeaderlessStarts(q, n int) []*core.Config {
	total := 1
	for i := 0; i < n; i++ {
		total *= q
	}
	out := make([]*core.Config, 0, total)
	states := make([]core.State, n)
	for code := 0; code < total; code++ {
		c := code
		for i := range states {
			states[i] = core.State(c % q)
			c /= q
		}
		out = append(out, core.NewConfigStates(states...))
	}
	return out
}
