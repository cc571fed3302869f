package naming

import (
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/counting"
	"popnaming/internal/explore"
	"popnaming/internal/prng"
	"popnaming/internal/sched"
	"popnaming/internal/seq"
	"popnaming/internal/sim"
)

// TestSelfStabConvergesFromArbitraryEverything: Proposition 16 — P+1
// states, arbitrary mobile states AND arbitrary leader state, weak
// fairness.
func TestSelfStabConvergesFromArbitraryEverything(t *testing.T) {
	r := prng.New(31)
	for p := 2; p <= 8; p++ {
		pr := NewSelfStab(p)
		for n := 1; n <= p; n++ {
			for trial := 0; trial < 10; trial++ {
				cfg := sim.ArbitraryConfig(pr, n, r) // random mobiles and random leader
				res := sim.NewRunner(pr, sched.NewRoundRobin(n, true), cfg).Run(5_000_000)
				if !res.Converged {
					t.Fatalf("P=%d N=%d trial %d: %s", p, n, trial, res)
				}
				if !cfg.ValidNaming() {
					t.Fatalf("P=%d N=%d: invalid naming %s", p, n, cfg)
				}
				for _, s := range cfg.Mobile {
					if int(s) < 1 || int(s) > p {
						t.Fatalf("P=%d N=%d: name %d outside {1..%d}: %s", p, n, s, p, cfg)
					}
				}
			}
		}
	}
}

// TestSelfStabNamesFullPopulation: unlike Protocol 1, the P+1-state
// version names all N = P agents (the extra state extends U* to U_P).
func TestSelfStabNamesFullPopulation(t *testing.T) {
	r := prng.New(32)
	const p = 7
	pr := NewSelfStab(p)
	for trial := 0; trial < 20; trial++ {
		cfg := sim.ArbitraryConfig(pr, p, r)
		res := sim.NewRunner(pr, sched.NewRandom(p, true, int64(trial)), cfg).Run(10_000_000)
		if !res.Converged {
			t.Fatalf("trial %d: %s", trial, res)
		}
		if !cfg.ValidNaming() {
			t.Fatalf("trial %d: invalid naming %s", trial, cfg)
		}
	}
}

// TestSelfStabResetLine: an absurd leader guess is reset by the first
// unnamed agent it meets once n exceeds P.
func TestSelfStabResetLine(t *testing.T) {
	pr := NewSelfStab(4)
	l := counting.BST(5, 11)
	l2, x2 := pr.LeaderInteract(l, 0)
	if counting.Guess(l2) != 0 || counting.Pointer(l2) != 0 {
		t.Fatalf("reset line: leader %v, want zeros", l2)
	}
	if x2 != 0 {
		t.Fatalf("reset line must not rename the agent, got %d", x2)
	}
	// A named agent does not trigger the reset.
	l3, x3 := pr.LeaderInteract(l, 2)
	if l3 != l || x3 != 2 {
		t.Fatalf("named agent with oversized guess must be null, got %v %d", l3, x3)
	}
}

// TestSelfStabModelCheckWeak proves Proposition 16 exhaustively for
// P = 2, N = 1..2: from EVERY combination of mobile states and leader
// states within the declared domains, every weakly fair execution
// converges to a naming with P+1 = 3 states per agent.
func TestSelfStabModelCheckWeak(t *testing.T) {
	const p = 2
	pr := NewSelfStab(p)
	for n := 1; n <= p; n++ {
		starts := explore.AllConfigs(pr.States(), n, pr.Leaders()...)
		g, err := explore.Build(pr, starts, explore.Options{MaxNodes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		verdict := g.CheckWeak(explore.Naming)
		if !verdict.OK {
			t.Fatalf("N=%d: %s", n, verdict)
		}
		t.Logf("Proposition 16 verified at P=%d, N=%d over %d configurations (%d starts)",
			p, n, verdict.Explored, len(starts))
	}
}

// TestSelfStabModelCheckWeakP3 extends the exhaustive proof to P = 3
// with every mobile start and every leader state in domain.
func TestSelfStabModelCheckWeakP3(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive P=3 check skipped in -short mode")
	}
	const p = 3
	pr := NewSelfStab(p)
	for n := 1; n <= p; n++ {
		starts := explore.AllConfigs(pr.States(), n, pr.Leaders()...)
		g, err := explore.Build(pr, starts, explore.Options{MaxNodes: 1 << 21})
		if err != nil {
			t.Fatal(err)
		}
		verdict := g.CheckWeak(explore.Naming)
		if !verdict.OK {
			t.Fatalf("N=%d: %s", n, verdict)
		}
		t.Logf("Proposition 16 verified at P=%d, N=%d over %d configurations", p, n, verdict.Explored)
	}
}

// TestSelfStabModelCheckWeakP4 verifies Proposition 16 at P = N = 4:
// all 5^4 mobile starts x all 102 leader states (63,750 starting
// configurations). Skipped with -short.
func TestSelfStabModelCheckWeakP4(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive P=4 check skipped in -short mode")
	}
	const p = 4
	pr := NewSelfStab(p)
	starts := explore.AllConfigs(pr.States(), p, pr.Leaders()...)
	g, err := explore.Build(pr, starts, explore.Options{MaxNodes: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	verdict := g.CheckWeak(explore.Naming)
	if !verdict.OK {
		t.Fatalf("%s", verdict)
	}
	t.Logf("Proposition 16 verified at P=N=%d over %d configurations (%d starts)",
		p, verdict.Explored, len(starts))
}

// TestSelfStabRecoversFromCorruption: converge, corrupt, re-converge —
// the operational meaning of self-stabilization.
func TestSelfStabRecoversFromCorruption(t *testing.T) {
	const p = 6
	pr := NewSelfStab(p)
	r := prng.New(33)
	cfg := sim.ArbitraryConfig(pr, p, r)
	res := sim.NewRunner(pr, sched.NewRoundRobin(p, true), cfg).Run(5_000_000)
	if !res.Converged {
		t.Fatal(res)
	}
	for round := 0; round < 5; round++ {
		sim.Corrupt(pr, cfg, r, 3, true)
		res = sim.NewRunner(pr, sched.NewRoundRobin(p, true), cfg).Run(5_000_000)
		if !res.Converged || !cfg.ValidNaming() {
			t.Fatalf("round %d: failed to recover: %s", round, res)
		}
	}
}

func TestResetBSTLeaderState(t *testing.T) {
	a := counting.BST(1, 5)
	if c := a; c != a || a == counting.BST(1, 6) || a == (core.Leader{}) {
		t.Error("bad equality semantics")
	}
	if string(a.AppendKey(nil)) == string(counting.BST(5, 1).AppendKey(nil)) {
		t.Error("key collision")
	}
}

func TestSelfStabRandomLeaderInDomain(t *testing.T) {
	pr := NewSelfStab(4)
	r := prng.New(2)
	for i := 0; i < 1000; i++ {
		l := pr.RandomLeader(r)
		if n, k := counting.Guess(l), counting.Pointer(l); n < 0 || n > 5 || k < 0 || k > seq.Len(4)+1 {
			t.Fatalf("leader state out of domain: %v", l)
		}
	}
}
