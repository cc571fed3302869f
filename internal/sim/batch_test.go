package sim

import (
	"bytes"
	"context"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/obs"
	"popnaming/internal/prng"
	"popnaming/internal/sched"
)

// engines are the engine inputs of the shared-pool tests.
var engines = []string{"agent", "count"}

// engineTrial returns a seeded trial maker for one engine: trialSeed =
// DeriveSeed(base, trial, attempt), a start from start(trialSeed) and
// either the random scheduler or the count engine seeded with
// trialSeed+1. Count trials fold the agent start into its census, so
// both engines begin from the same configuration.
func engineTrial(engine string, pr core.Protocol, base int64, start func(seed int64) *core.Config) func(trial, attempt int) Trial {
	return func(trial, attempt int) Trial {
		seed := DeriveSeed(base, trial, attempt)
		cfg := start(seed)
		if engine == "count" {
			cc, err := core.CountsOf(cfg, pr.States())
			if err != nil {
				panic(err)
			}
			return Trial{Count: cc, Seed: seed + 1}
		}
		return Trial{Cfg: cfg, Sched: sched.NewRandom(cfg.N(), core.HasLeader(pr), seed+1)}
	}
}

// runBatch runs a batch with the whole budget in one slice: the
// stopping rule of a bare Runner.Run(budget) per trial.
func runBatch(pr core.Protocol, trials, budget, workers int, mk func(trial int) Trial) []BatchResult {
	sup := Supervision{StepBudget: budget, Slice: budget}
	return RunBatchSupervised(context.Background(), pr, trials, workers, sup, BatchObs{}, func(trial, attempt int) Trial {
		return mk(trial)
	}).Results
}

func TestRunBatchAllConverge(t *testing.T) {
	const n, trials = 8, 40
	pr := naming.NewSelfStab(n)
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			mk := engineTrial(engine, pr, 900, func(seed int64) *core.Config {
				return ArbitraryConfig(pr, n, prng.New(seed))
			})
			sum := RunBatchSupervised(context.Background(), pr, trials, 4, Supervision{StepBudget: 10_000_000}, BatchObs{}, mk)
			if len(sum.Results) != trials || sum.Converged != trials || sum.Aborted != 0 {
				t.Fatalf("got %d results, %d converged, %d aborted", len(sum.Results), sum.Converged, sum.Aborted)
			}
			for _, br := range sum.Results {
				if !br.Result.ValidNaming() {
					t.Fatalf("trial %d invalid naming: %s", br.Trial, br.Result)
				}
				if (engine == "count") != (br.Result.Census != nil) || (engine == "agent") != (br.Result.Final != nil) {
					t.Fatalf("trial %d: %s result carries the other engine's configuration", br.Trial, engine)
				}
			}
		})
	}
}

// TestRunBatchDeterministicPerTrial: results depend only on the trial's
// seed, not on scheduling of goroutines.
func TestRunBatchDeterministicPerTrial(t *testing.T) {
	const n, trials = 6, 16
	pr := naming.NewAsymmetric(n)
	run := func(workers int) []int {
		results := runBatch(pr, trials, 5_000_000, workers, func(trial int) Trial {
			r := prng.New(int64(trial))
			return Trial{
				Cfg:   ArbitraryConfig(pr, n, r),
				Sched: sched.NewRandom(n, false, int64(trial)),
			}
		})
		steps := make([]int, trials)
		for _, br := range results {
			steps[br.Trial] = br.Result.Steps
		}
		return steps
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("trial %d differs: serial %d vs parallel %d", i, serial[i], parallel[i])
		}
	}
}

// TestRunBatchRangeMatchesFull: a shard range [lo, hi) reproduces the
// same trials of the full batch — results and journal records — on
// either engine, because trial seeds derive from the global index.
func TestRunBatchRangeMatchesFull(t *testing.T) {
	const n, trials, lo, hi = 6, 8, 3, 6
	pr := naming.NewSelfStab(n)
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			mk := engineTrial(engine, pr, 77, func(seed int64) *core.Config {
				return ArbitraryConfig(pr, n, prng.New(seed))
			})
			run := func(lo, hi int) (BatchSummary, map[int][]byte) {
				var buf bytes.Buffer
				sink := obs.NewJournalSink(&buf)
				sup := Supervision{StepBudget: 10_000_000, Sink: sink}
				sum := RunBatchRangeSupervised(context.Background(), pr, lo, hi, 1, sup, BatchObs{Sink: sink, ProgressEvery: 500}, mk)
				return sum, trialRecords(t, buf.Bytes())
			}
			full, fullRecs := run(0, trials)
			shard, shardRecs := run(lo, hi)
			if shard.Trials != hi-lo {
				t.Fatalf("shard summary covers %d trials, want %d", shard.Trials, hi-lo)
			}
			for off, br := range shard.Results {
				want := full.Results[lo+off]
				if br.Trial != lo+off || br.Result.Steps != want.Result.Steps || br.Result.Converged != want.Result.Converged {
					t.Fatalf("shard trial %d: %+v, full batch: %+v", lo+off, br, want)
				}
				if !bytes.Equal(shardRecs[lo+off], fullRecs[lo+off]) {
					t.Fatalf("trial %d records differ:\n--- shard ---\n%s\n--- full ---\n%s", lo+off, shardRecs[lo+off], fullRecs[lo+off])
				}
			}
		})
	}
}

func TestRunBatchZeroWorkersDefaults(t *testing.T) {
	pr := naming.NewAsymmetric(4)
	results := runBatch(pr, 3, 1_000_000, 0, func(trial int) Trial {
		return Trial{
			Cfg:   UniformConfig(pr, 4),
			Sched: sched.NewRoundRobin(4, false),
		}
	})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
}

func TestRunBatchRace(t *testing.T) {
	// Exercised under -race in CI-style runs: many workers sharing one
	// protocol value, one compiled table and one sink.
	pr := naming.NewGlobalP(4)
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			mk := engineTrial(engine, pr, 5, func(seed int64) *core.Config {
				return ArbitraryConfig(pr, 3, prng.New(seed))
			})
			bo := BatchObs{Sink: &syncSink{}, ProgressEvery: 1000}
			RunBatchSupervised(context.Background(), pr, 32, 16, Supervision{StepBudget: 100_000}, bo, mk)
		})
	}
}
