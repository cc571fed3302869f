package sim_test

import (
	"context"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
	"popnaming/internal/stats"
)

// countDiffTrials trials per engine give the two-sample KS test enough
// resolution to catch a mis-weighted sampler while staying fast; alpha
// is deliberately strict (the samples SHOULD agree — a false rejection
// would flake CI) and the seeds are fixed, so the test is deterministic.
const (
	countDiffTrials = 120
	countDiffBudget = 400000
	countDiffAlpha  = 1e-3
)

// stepsSample runs `trials` trials of one engine ("agent", or anything
// else for the count engine) through the batch pool under sup, with
// the standard seed recipe — config from trialSeed, scheduler from
// trialSeed+1; the count engine folds the same config to count space
// and takes the scheduler's seed — and returns the converged Steps
// values plus the converged count. Equal seeds cannot reproduce
// trajectories across engines (randomness is consumed differently), so
// only the distributions are comparable — which is exactly what the KS
// test checks.
func stepsSample(t *testing.T, pr core.Protocol, n int, base int64, trials int, sup sim.Supervision, engine string) ([]float64, int) {
	t.Helper()
	withLeader := core.HasLeader(pr)
	sum := sim.RunBatchSupervised(context.Background(), pr, trials, 1, sup, sim.BatchObs{}, func(trial, attempt int) sim.Trial {
		seed := sim.DeriveSeed(base, trial, attempt)
		cfg := diffStart(pr, n, seed)
		if engine == "agent" {
			return sim.Trial{Cfg: cfg, Sched: sched.NewRandom(n, withLeader, seed+1)}
		}
		cc, err := core.CountsOf(cfg, pr.States())
		if err != nil {
			t.Error(err)
		}
		return sim.Trial{Count: cc, Seed: seed + 1}
	})
	var steps []float64
	for _, br := range sum.Results {
		if br.Result.Converged {
			steps = append(steps, float64(br.Result.Steps))
		}
	}
	return steps, sum.Converged
}

// bareRun is the one-slice supervision of a bare Run(countDiffBudget).
var bareRun = sim.Supervision{StepBudget: countDiffBudget, Slice: countDiffBudget}

// TestCountMatchesAgentDistribution is the tentpole differential test:
// for every registry protocol, the count engine's convergence-step
// distribution must be statistically indistinguishable (two-sample KS)
// from the agent engine's. Protocols that do not converge within budget
// must not converge under either engine (`naive` is incorrect by
// design); partially converging ones are held to consistent rates.
func TestCountMatchesAgentDistribution(t *testing.T) {
	testEnginesAgree(t, bareRun)
}

// TestCountMatchesAgentSupervised holds the engines to the same KS bar
// under one default-slice Supervision, where both test silence at
// every slice boundary too: a grid's agent and count cells share that
// stopping rule, so their distributions must still agree.
func TestCountMatchesAgentSupervised(t *testing.T) {
	testEnginesAgree(t, sim.Supervision{StepBudget: countDiffBudget})
}

func testEnginesAgree(t *testing.T, sup sim.Supervision) {
	if testing.Short() {
		t.Skip("differential distribution test is not short")
	}
	for _, key := range experiments.RegistryKeys() {
		key := key
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			pr, n := diffCase(t, key)
			base := int64(52000)
			agent, agentConv := stepsSample(t, pr, n, base, countDiffTrials, sup, "agent")
			count, countConv := stepsSample(t, pr, n, base, countDiffTrials, sup, "auto")

			t.Logf("converged: agent %d/%d, count %d/%d", agentConv, countDiffTrials, countConv, countDiffTrials)
			// Convergence rates must agree to within what a binomial at
			// these sizes can produce (±5σ with p̂ pooled, floored).
			if diff := agentConv - countConv; diff < -40 || diff > 40 {
				t.Fatalf("convergence rates diverge: agent %d vs count %d", agentConv, countConv)
			}
			if agentConv < 30 || countConv < 30 {
				// Not enough converged mass for a meaningful KS test;
				// rate consistency above is the whole check.
				return
			}
			same, d, crit := stats.KSSame(agent, count, countDiffAlpha)
			t.Logf("KS distance %.4f, critical %.4f (alpha %g)", d, crit, countDiffAlpha)
			if !same {
				t.Fatalf("convergence-step distributions differ: D = %.4f > critical %.4f", d, crit)
			}
		})
	}
}
