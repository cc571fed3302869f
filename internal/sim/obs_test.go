package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"regexp"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/obs"
	"popnaming/internal/prng"
	"popnaming/internal/sched"
)

// TestRunnerObserverMatchesResult checks that the observer's counters
// agree exactly with the runner's own accounting and that the journal
// ends with a well-formed summary carrying per-rule fire counts.
func TestRunnerObserverMatchesResult(t *testing.T) {
	const n = 8
	pr := naming.NewAsymmetric(n)
	cfg := core.NewConfig(n, 0)
	var buf bytes.Buffer
	sink := obs.NewJournalSink(&buf)
	o := obs.NewObserver(n, false, obs.ObserverOptions{Sink: sink, ProgressEvery: 64})
	run := NewRunner(pr, sched.NewRandom(n, false, 1), cfg)
	run.Obs = o
	res := run.Run(5_000_000)
	if !res.Converged {
		t.Fatalf("did not converge: %s", res)
	}
	if o.Steps() != uint64(res.Steps) || o.NonNull() != uint64(res.NonNull) {
		t.Fatalf("observer %d/%d vs result %d/%d",
			o.Steps(), o.NonNull(), res.Steps, res.NonNull)
	}

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	var summary obs.Summary
	if err := json.Unmarshal(lines[len(lines)-1], &summary); err != nil {
		t.Fatalf("last record not a summary: %v", err)
	}
	if summary.Type != "summary" || !summary.Converged || summary.Steps != uint64(res.Steps) {
		t.Fatalf("summary = %+v", summary)
	}
	if len(summary.Rules) == 0 {
		t.Fatal("summary has no rule fire counts")
	}
	var fires uint64
	for _, rc := range summary.Rules {
		fires += rc.Count
	}
	if fires != uint64(res.NonNull) {
		t.Fatalf("rule fires %d != non-null %d", fires, res.NonNull)
	}
	var progress obs.Progress
	if err := json.Unmarshal(lines[0], &progress); err != nil || progress.Type != "progress" {
		t.Fatalf("first record not progress: %v %+v", err, progress)
	}
}

var wallClockFields = regexp.MustCompile(`"(elapsedNs|wallNs|utilization)":[0-9.e+-]+`)

// TestJournalDeterministic: two batches with the same seed produce
// byte-identical journals modulo the wall-clock fields, on either
// engine (one worker, so record order is fixed).
func TestJournalDeterministic(t *testing.T) {
	const n = 6
	pr := naming.NewSelfStab(n)
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			mk := engineTrial(engine, pr, 3, func(seed int64) *core.Config {
				return ArbitraryConfig(pr, n, prng.New(seed))
			})
			journal := func() []byte {
				var buf bytes.Buffer
				sink := obs.NewJournalSink(&buf)
				sup := Supervision{StepBudget: 50_000_000, Sink: sink}
				RunBatchSupervised(context.Background(), pr, 3, 1, sup, BatchObs{Sink: sink, ProgressEvery: 1000}, mk)
				return wallClockFields.ReplaceAll(buf.Bytes(), []byte(`"wall":0`))
			}
			a, b := journal(), journal()
			if !bytes.Equal(a, b) {
				t.Fatalf("journals differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
			}
		})
	}
}

// trialRecords groups a batch journal's trial-tagged records by trial
// index, wall-clock fields stripped; the untagged batch summary is
// dropped.
func trialRecords(t *testing.T, journal []byte) map[int][]byte {
	t.Helper()
	out := map[int][]byte{}
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		var probe struct {
			Type  string `json:"type"`
			Trial int    `json:"trial"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("corrupt journal line %q: %v", line, err)
		}
		if probe.Type == "batch_summary" {
			continue
		}
		out[probe.Trial] = append(out[probe.Trial], wallClockFields.ReplaceAll(line, []byte(`"wall":0`))...)
		out[probe.Trial] = append(out[probe.Trial], '\n')
	}
	return out
}

// TestRunBatchObservedJournal runs a concurrent batch into one shared
// sink (the race detector covers the concurrent Emit path) and checks
// the per-trial summaries and the merged batch summary.
func TestRunBatchObservedJournal(t *testing.T) {
	const n, trials = 6, 8
	pr := naming.NewSelfStab(n)
	var buf bytes.Buffer
	sink := obs.NewJournalSink(&buf)
	sup := Supervision{StepBudget: 50_000_000, Slice: 50_000_000}
	sum := RunBatchSupervised(context.Background(), pr, trials, 4, sup, BatchObs{Sink: sink}, func(trial, attempt int) Trial {
		r := prng.New(int64(trial))
		return Trial{
			Cfg:   ArbitraryConfig(pr, n, r),
			Sched: sched.NewRandom(n, true, int64(trial)),
		}
	})
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if sum.Trials != trials || sum.Converged != trials {
		t.Fatalf("summary %+v", sum)
	}
	if sum.Workers != 4 || sum.WallNS <= 0 {
		t.Fatalf("workers/wall: %+v", sum)
	}
	if sum.Utilization <= 0 || sum.Utilization > 1.5 {
		t.Fatalf("implausible utilization %v", sum.Utilization)
	}
	if sum.StepsToConverge.Count() != trials {
		t.Fatalf("histogram count %d", sum.StepsToConverge.Count())
	}

	summaries := map[int]obs.Summary{}
	batchSummaries := 0
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("corrupt journal line %q: %v", line, err)
		}
		switch probe.Type {
		case "summary":
			var s obs.Summary
			if err := json.Unmarshal(line, &s); err != nil {
				t.Fatal(err)
			}
			summaries[s.Trial] = s
		case "batch_summary":
			batchSummaries++
		}
	}
	if len(summaries) != trials {
		t.Fatalf("got %d trial summaries, want %d", len(summaries), trials)
	}
	if batchSummaries != 1 {
		t.Fatalf("got %d batch summaries, want 1", batchSummaries)
	}
	for i, br := range sum.Results {
		s, ok := summaries[i]
		if !ok || s.Steps != uint64(br.Result.Steps) {
			t.Fatalf("trial %d summary mismatch: %+v vs %+v", i, s, br.Result)
		}
	}
}

// TestRunBatchMatchesObserved checks that attaching a sink does not
// perturb the trials: observed and unobserved batches give identical
// results.
func TestRunBatchMatchesObserved(t *testing.T) {
	const n, trials = 5, 6
	pr := naming.NewAsymmetric(n)
	mk := func(trial, attempt int) Trial {
		return Trial{
			Cfg:   core.NewConfig(n, 0),
			Sched: sched.NewRoundRobin(n, false),
		}
	}
	sup := Supervision{StepBudget: 1_000_000}
	a := RunBatchSupervised(context.Background(), pr, trials, 2, sup, BatchObs{}, mk).Results
	b := RunBatchSupervised(context.Background(), pr, trials, 2, sup, BatchObs{Sink: &syncSink{}}, mk).Results
	for i := range a {
		if a[i].Result.Steps != b[i].Result.Steps || a[i].Result.Converged != b[i].Result.Converged {
			t.Fatalf("trial %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestRunnerFastPathNoAllocs pins the disabled-observability guarantee:
// a step with Obs == nil allocates nothing.
func TestRunnerFastPathNoAllocs(t *testing.T) {
	const n = 64
	pr := naming.NewAsymmetric(n)
	run := NewRunner(pr, sched.NewRandom(n, false, 1), core.NewConfig(n, 0))
	allocs := testing.AllocsPerRun(2000, func() { run.Step() })
	if allocs != 0 {
		t.Fatalf("fast path allocates %v per step, want 0", allocs)
	}
}

// churnExecutor builds a never-silent observed executor on either
// engine: 64 agents of the 8-state churn protocol (every same-state
// meeting changes a state, so silence is unreachable), observed by o.
func churnExecutor(t testing.TB, engine string, o *obs.Observer) Executor {
	t.Helper()
	const n = 64
	pr := churnProto(8)
	if engine == "count" {
		cc := core.NewCountConfig(8)
		cc.Counts[0] = n
		r, err := NewCountRunner(pr, cc, 1)
		if err != nil {
			t.Fatal(err)
		}
		r.Obs = o
		if err := r.ensure(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := NewRunner(pr, sched.NewRandom(n, false, 1), core.NewConfig(n, 0))
	r.Obs = o
	if !r.Compiled() {
		t.Fatal("compiled engine unavailable")
	}
	return r
}

// TestProgressRecordsPerPeriod: a run that ends exactly on a progress
// boundary journals one progress record (and, on the count engine, one
// census record) per period — Finish does not repeat the last one.
func TestProgressRecordsPerPeriod(t *testing.T) {
	const k, budget = 1000, 3000
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			sink := &syncSink{}
			o := obs.NewObserver(64, false, obs.ObserverOptions{Sink: sink, ProgressEvery: k, NoPairs: engine == "count"})
			ex := churnExecutor(t, engine, o)
			if res := ex.run(budget); res.Steps != budget || res.Converged {
				t.Fatalf("result %v, want %d steps unconverged", res, budget)
			}
			ex.finish(false)
			var progress, census []uint64
			for _, rec := range sink.take() {
				switch rec := rec.(type) {
				case obs.Progress:
					progress = append(progress, rec.Step)
				case obs.CensusRec:
					census = append(census, rec.Step)
				}
			}
			want := []uint64{1000, 2000, 3000}
			if !reflect.DeepEqual(progress, want) {
				t.Fatalf("progress records at steps %v, want %v", progress, want)
			}
			if engine == "count" && !reflect.DeepEqual(census, want) {
				t.Fatalf("census records at steps %v, want %v", census, want)
			}
		})
	}
}

// TestSnapshotDuringFusedRun scrapes an observer from another goroutine
// while a supervised fused run feeds it, on each engine: the steps it
// reads never decrease and end at the result's step count. The race
// detector (make race-fault) checks the fold's atomic publication.
func TestSnapshotDuringFusedRun(t *testing.T) {
	const budget = 1 << 20
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			o := obs.NewObserver(64, false, obs.ObserverOptions{NoPairs: engine == "count"})
			done := make(chan struct{})
			last := make(chan uint64)
			go func() {
				var prev uint64
				for {
					select {
					case <-done:
						last <- o.Snapshot().Steps
						return
					default:
					}
					s := o.Snapshot().Steps
					if s < prev {
						t.Errorf("snapshot steps went back from %d to %d", prev, s)
					}
					prev = s
				}
			}()
			res := Supervise(context.Background(), Supervision{StepBudget: budget}, func(int) Executor {
				return churnExecutor(t, engine, o)
			})
			close(done)
			if got := <-last; got != uint64(res.Steps) || res.Steps != budget {
				t.Fatalf("final snapshot %d steps, result %d, budget %d", got, res.Steps, budget)
			}
		})
	}
}

// TestObservedRunNoAllocs pins the observed fused loop's cost between
// progress boundaries: running it allocates nothing on either engine.
func TestObservedRunNoAllocs(t *testing.T) {
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			o := obs.NewObserver(64, false, obs.ObserverOptions{Sink: obs.Discard, ProgressEvery: 1 << 30, NoPairs: engine == "count"})
			ex := churnExecutor(t, engine, o)
			allocs := testing.AllocsPerRun(50, func() {
				ex.run(ex.snapshot().Steps + 1000)
			})
			if allocs != 0 {
				t.Fatalf("observed run allocates %v per 1000 interactions, want 0", allocs)
			}
		})
	}
}
