package election

import (
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/explore"
	"popnaming/internal/prng"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

func TestWellFormed(t *testing.T) {
	for n := 1; n <= 8; n++ {
		if err := core.CheckProtocol(New(n)); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestLeaderPredicates(t *testing.T) {
	c := core.NewConfigStates(0, 1, 2)
	if !Elected(c) {
		t.Error("single state-0 holder should be elected")
	}
	if got := Leaders(c); len(got) != 1 || got[0] != 0 {
		t.Errorf("Leaders = %v", got)
	}
	if Elected(core.NewConfigStates(0, 0, 1)) {
		t.Error("two leaders should not count as elected")
	}
	if Elected(core.NewConfigStates(1, 2, 3)) {
		t.Error("no leader should not count as elected")
	}
}

// TestElectsAtExactSize: with m = n the protocol self-stabilizes to a
// unique stable leader under both fairness regimes.
func TestElectsAtExactSize(t *testing.T) {
	r := prng.New(1)
	for n := 2; n <= 10; n++ {
		p := New(n)
		for trial := 0; trial < 5; trial++ {
			cfg := p.RandomConfig(n, r)
			res := sim.NewRunner(p, sched.NewRoundRobin(n, false), cfg).Run(5_000_000)
			if !res.Converged {
				t.Fatalf("n=%d: %s", n, res)
			}
			if !Elected(cfg) {
				t.Fatalf("n=%d: no unique leader in %s", n, cfg)
			}
		}
	}
}

// TestModelCheckExactSize proves self-stabilizing election exhaustively
// for n = 3: every weakly fair execution from every start elects.
func TestModelCheckExactSize(t *testing.T) {
	const n = 3
	p := New(n)
	var starts []*core.Config
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for c := 0; c < n; c++ {
				starts = append(starts, core.NewConfigStates(core.State(a), core.State(b), core.State(c)))
			}
		}
	}
	g, err := explore.Build(p, starts, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := g.CheckWeak(Elected); !v.OK {
		t.Fatalf("%s", v)
	}
}

// TestExactKnowledgeNecessary: run the protocol sized for n on a
// smaller population and a silent LEADERLESS configuration is reachable
// — the necessity side of Cai-Izumi-Wada, exhibited by model checking.
func TestExactKnowledgeNecessary(t *testing.T) {
	p := New(4) // believes N = 4
	const m = 2 // actual population
	var starts []*core.Config
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			starts = append(starts, core.NewConfigStates(core.State(a), core.State(b)))
		}
	}
	g, err := explore.Build(p, starts, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := g.CheckWeak(Elected)
	if v.OK {
		t.Fatal("election unexpectedly correct with wrong size knowledge")
	}
	// The witness should be a silent configuration with zero leaders
	// (e.g. states {1,2}).
	if v.BadConfig == nil {
		t.Fatal("missing witness")
	}
	t.Logf("necessity witness: %s", v)

	// And concretely: from (1, 2) nothing ever changes and nobody leads.
	stuck := core.NewConfigStates(1, 2)
	if !core.Silent(p, stuck) || Elected(stuck) {
		t.Fatalf("expected (1,2) to be silent and leaderless")
	}
	_ = m
}

// TestLeaderIsStable: once converged, further interactions never change
// the leader.
func TestLeaderIsStable(t *testing.T) {
	const n = 6
	p := New(n)
	r := prng.New(2)
	cfg := p.RandomConfig(n, r)
	res := sim.NewRunner(p, sched.NewRandom(n, false, 3), cfg).Run(5_000_000)
	if !res.Converged || !Elected(cfg) {
		t.Fatalf("setup failed: %s", res)
	}
	leader := Leaders(cfg)[0]
	s := sched.NewRandom(n, false, 4)
	for i := 0; i < 100000; i++ {
		core.ApplyPair(p, cfg, s.Next())
		if got := Leaders(cfg); len(got) != 1 || got[0] != leader {
			t.Fatalf("leader changed after convergence at step %d: %v", i, got)
		}
	}
}

func TestNewRejectsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}
