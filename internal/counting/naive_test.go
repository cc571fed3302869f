package counting

import (
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/explore"
)

func TestNaiveVariantWellFormed(t *testing.T) {
	for p := 2; p <= 6; p++ {
		if err := core.CheckProtocol(NewNaive(p)); err != nil {
			t.Errorf("P=%d: %v", p, err)
		}
	}
}

// TestNaiveMiscountsByHand replays the concrete failing execution from
// the ablation analysis: P = 3, two agents both initially named 1.
func TestNaiveMiscountsByHand(t *testing.T) {
	pr := NewNaive(3)
	cfg := core.NewConfigStates(1, 1).WithLeader(pr.InitLeader())

	core.ApplyLeader(pr, cfg, 0)    // BST meets agent 1: name > n, renamed cyc(1)=1
	core.ApplyMobile(pr, cfg, 0, 1) // homonyms sink to 0
	core.ApplyLeader(pr, cfg, 0)    // 0-agent named cyc(2)=2, n=2
	core.ApplyLeader(pr, cfg, 1)    // 0-agent named cyc(3)=1, n=3

	if got := pr.Count(cfg); got != 3 {
		t.Fatalf("expected the naive variant to miscount (n=3), got n=%d in %s", got, cfg)
	}
}

// TestNaiveFailsModelCheck: exhaustively, the naive variant does NOT
// solve counting under weak fairness at P = 3 — while Protocol 1 with
// the true U* does (TestModelCheckCounting). This isolates the U*
// sequence as the load-bearing ingredient.
func TestNaiveFailsModelCheck(t *testing.T) {
	const p = 3
	pr := NewNaive(p)
	failed := false
	for n := 1; n <= p && !failed; n++ {
		g, err := explore.Build(pr, explore.AllConfigs(pr.States(), n, pr.InitLeader()), explore.Options{MaxNodes: 1 << 18})
		if err != nil {
			t.Fatal(err)
		}
		nn := n
		verdict := g.CheckWeak(func(c *core.Config) bool {
			return Guess(c.Leader) == nn
		})
		if !verdict.OK {
			failed = true
			t.Logf("naive variant fails at N=%d: %s", n, verdict)
		}
	}
	if !failed {
		t.Fatal("naive variant unexpectedly counts correctly at P=3; ablation void")
	}
}
