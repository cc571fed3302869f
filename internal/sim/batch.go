package sim

import (
	"context"
	"runtime"
	"sync"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
)

// Trial describes one attempt of an independent execution on either
// engine. Agent-engine trials set Cfg, Sched and optionally Inject;
// count-engine trials set Count and Seed. Batches
// share one Protocol value across goroutines, which is safe because
// protocols are immutable and their transition functions are pure.
type Trial struct {
	Cfg   *core.Config
	Sched sched.Scheduler
	// Inject, when non-nil, is installed as the trial runner's fault
	// injector. Injectors are single-use: supervised batches call
	// mkTrial once per attempt and expect a fresh one each time.
	Inject *fault.Injector

	// Count, when non-nil, selects the count engine: the starting
	// census, mutated in place like Cfg.
	Count *core.CountConfig
	// Seed seeds the count engine's RNG (the scheduler-seed role; see
	// CountRunner.Seed).
	Seed int64
}

// Executor is one attempt of a trial on either engine, as the
// supervisor drives it: *Runner for the agent engine, *CountRunner for
// the count engine. NewExecutor is where a Trial picks between them.
type Executor interface {
	// Observer returns the attached observer (nil when unobserved).
	Observer() *obs.Observer

	// run executes until silence or until maxSteps interactions in
	// total, testing silence first, and leaves the observer open.
	run(maxSteps int) Result
	// snapshot is the result so far with Converged false: an aborted
	// attempt's partial result.
	snapshot() Result
	// quietStreak is the current run of consecutive null interactions.
	quietStreak() int
	// finish finishes the attached observer, if any.
	finish(converged bool)
	// fired lists the fault injections fired so far.
	fired() []fault.Fired
}

// NewExecutor builds the executor for one attempt of trial t of pr —
// the one place the engine is chosen: the count engine when t.Count is
// set, the agent engine otherwise. tab, when non-nil, is pr's compiled
// table shared across a batch's trials (nil: the executor compiles its
// own). When bo.Sink is set the executor journals through a fresh
// observer tagged with the trial index, and so does the trial's fault
// injector. Like NewRunner on a leader mismatch, it panics on a count
// trial the count engine cannot run; admission validates those with
// CheckCount.
func NewExecutor(pr core.Protocol, t Trial, tab *core.Compiled, bo BatchObs, trial int) Executor {
	oo := obs.ObserverOptions{Sink: bo.Sink, ProgressEvery: bo.ProgressEvery, Trial: trial}
	if t.Count != nil {
		r, err := newCountRunner(pr, t.Count, t.Seed, tab)
		if err != nil {
			panic(err)
		}
		if bo.Sink != nil {
			oo.NoPairs = true
			r.Obs = obs.NewObserver(t.Count.N(), core.HasLeader(pr), oo)
		}
		return r
	}
	r := NewRunner(pr, t.Sched, t.Cfg)
	if t.Inject != nil {
		t.Inject.Trial = trial
		if bo.Sink != nil {
			t.Inject.Sink = bo.Sink
		}
		r.Inject = t.Inject
	}
	if bo.Sink != nil {
		r.Obs = obs.NewObserver(t.Cfg.N(), core.HasLeader(pr), oo)
	}
	if tab != nil {
		r.UseCompiled(tab)
	}
	return r
}

// BatchResult pairs a trial index with its outcome.
type BatchResult struct {
	Trial  int
	Result Result
	// Status, Attempts and Reason carry the supervision outcome (see
	// SupervisedResult). A trial whose batch deadline or interrupt hit
	// before it started is TrialAborted with a zero Result.
	Status   TrialStatus
	Attempts int
	Reason   string
}

// BatchObs configures observability for a batch run.
type BatchObs struct {
	// Sink, when non-nil, receives trial-tagged progress and summary
	// records from every trial plus the merged batch-summary record.
	// It is shared across workers and must be safe for concurrent use
	// (obs.JournalSink is); record order across trials follows worker
	// scheduling and is not deterministic.
	Sink obs.Sink
	// ProgressEvery is the per-trial progress snapshot period in
	// interactions (0: only final snapshots).
	ProgressEvery int
}

// BatchSummary aggregates one batch run.
type BatchSummary struct {
	// Results holds the per-trial outcomes, indexed by trial.
	Results []BatchResult
	// Trials and Converged count the runs and how many reached
	// silence within budget.
	Trials    int
	Converged int
	// Aborted and Retried count trials cut short by supervision and
	// trials that completed only after a stall retry.
	Aborted int
	Retried int
	// TotalSteps and TotalNonNull sum the interaction counts of all
	// trials.
	TotalSteps   int64
	TotalNonNull int64
	// StepsToConverge is the log-scale histogram of steps-to-silence
	// over the converged trials.
	StepsToConverge obs.Histogram
	// Workers, WallNS and Utilization describe the worker pool:
	// utilization is the summed busy time of all workers divided by
	// workers x wall clock (1.0 = no idle time).
	Workers     int
	WallNS      int64
	Utilization float64
}

// Record converts the summary to its journal record.
func (s *BatchSummary) Record() obs.BatchSummaryRec {
	return obs.BatchSummaryRec{
		V:            obs.Version,
		Type:         "batch_summary",
		Trials:       s.Trials,
		Converged:    s.Converged,
		Aborted:      s.Aborted,
		Retried:      s.Retried,
		TotalSteps:   s.TotalSteps,
		TotalNonNull: s.TotalNonNull,
		StepsHist:    s.StepsToConverge.Buckets(),
		Workers:      s.Workers,
		WallNS:       s.WallNS,
		Utilization:  s.Utilization,
	}
}

// RunBatchSupervised executes independent supervised trials
// concurrently: each trial runs under sup (step budget, stall retry,
// interrupt) with the deadline interpreted batch-wide — one instant,
// computed at entry, bounds every trial, and trials claimed after it
// passes are tagged TrialAborted without running. mkTrial is called
// once per attempt (fresh configuration, scheduler and injector each
// time; derive per-attempt seeds with DeriveSeed); trial injectors are
// wired to the batch sink and their trial index before the run starts.
//
// ctx cancellation is honored like the batch deadline: trials claimed
// after the cancel are tagged TrialAborted with reason "canceled"
// without running, and in-flight trials abort at their next slice
// boundary with partial results. A nil ctx is context.Background().
func RunBatchSupervised(ctx context.Context, pr core.Protocol, trials, workers int, sup Supervision, bo BatchObs, mkTrial func(trial, attempt int) Trial) BatchSummary {
	return RunBatchRangeSupervised(ctx, pr, 0, trials, workers, sup, bo, mkTrial)
}

// RunBatchRangeSupervised runs the contiguous trial range [lo, hi) of a
// logical batch. Every trial index that escapes — mkTrial arguments,
// result tags, progress/summary records, injector tags, span names —
// is the global index, so a shard's records are byte-identical to the
// same trials' records in a full run (trial seeds derive from the
// global index via DeriveSeed). The summary describes just the range:
// Trials = hi-lo, with Results indexed by offset from lo. This is the
// execution half of the dist shard protocol (see internal/dist);
// RunBatchSupervised is the lo=0, hi=trials special case.
func RunBatchRangeSupervised(ctx context.Context, pr core.Protocol, lo, hi, workers int, sup Supervision, bo BatchObs, mkTrial func(trial, attempt int) Trial) BatchSummary {
	if ctx == nil {
		ctx = context.Background()
	}
	trials := hi - lo
	if trials < 0 {
		trials = 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	// Compile once and share the (immutable) table across all workers,
	// instead of once per trial. A protocol that fails to compile runs
	// every agent trial on the interface path, as a single run would;
	// count trials need the table and compile their own (NewExecutor
	// panics if they cannot).
	var tab *core.Compiled
	if pr.States() <= maxCompiledStates {
		tab, _ = core.Compile(pr)
	}
	var deadlineAt time.Time
	if sup.Deadline > 0 {
		deadlineAt = time.Now().Add(sup.Deadline)
	}
	out := make([]BatchResult, trials)
	busy := make([]int64, workers)
	start := time.Now()
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				off := next
				next++
				mu.Unlock()
				if off >= trials {
					return
				}
				i := lo + off
				// Graceful degradation: past the batch deadline (or
				// after an interrupt) the remaining trials are tagged
				// instead of run, so the batch returns promptly with
				// partial results.
				if ctx.Err() != nil {
					out[off] = BatchResult{Trial: i, Status: TrialAborted, Reason: "canceled"}
					continue
				}
				if sup.Interrupt != nil && sup.Interrupt() {
					out[off] = BatchResult{Trial: i, Status: TrialAborted, Reason: "interrupt"}
					continue
				}
				if !deadlineAt.IsZero() && !time.Now().Before(deadlineAt) {
					out[off] = BatchResult{Trial: i, Status: TrialAborted, Reason: "deadline"}
					continue
				}
				t0 := time.Now()
				tsup := sup
				tsup.Trial = i
				if bo.Sink != nil {
					tsup.Sink = bo.Sink
				}
				// One span per trial, parenting the attempt/slice spans
				// superviseUntil emits. The ID derives from (trace,
				// parent, "trial", i), not from emission order, so span
				// trees are identical however workers interleave.
				var tspan *obs.Span
				if sup.Trace.Enabled() {
					tspan = sup.Trace.Start("trial", i)
					tspan.Trial = i
					tsup.Trace = tspan.Context()
				}
				sr := superviseUntil(ctx, tsup, deadlineAt, func(attempt int) Executor {
					return NewExecutor(pr, mkTrial(i, attempt), tab, bo, i)
				})
				if tspan != nil {
					tspan.Attr("attempts", int64(sr.Attempts)).Attr("steps", int64(sr.Result.Steps)).Attr("nonNull", int64(sr.Result.NonNull))
					if sr.Result.Converged {
						tspan.Attr("converged", 1)
					}
					tspan.End()
				}
				out[off] = BatchResult{Trial: i, Result: sr.Result, Status: sr.Status, Attempts: sr.Attempts, Reason: sr.Reason}
				busy[w] += time.Since(t0).Nanoseconds()
			}
		}(w)
	}
	wg.Wait()

	sum := BatchSummary{
		Results: out,
		Trials:  trials,
		Workers: workers,
		WallNS:  time.Since(start).Nanoseconds(),
	}
	for _, br := range out {
		sum.TotalSteps += int64(br.Result.Steps)
		sum.TotalNonNull += int64(br.Result.NonNull)
		if br.Result.Converged {
			sum.Converged++
			sum.StepsToConverge.Observe(int64(br.Result.Steps))
		}
		switch br.Status {
		case TrialAborted:
			sum.Aborted++
		case TrialRetried:
			sum.Retried++
		}
	}
	var totalBusy int64
	for _, b := range busy {
		totalBusy += b
	}
	if sum.WallNS > 0 && workers > 0 {
		sum.Utilization = float64(totalBusy) / (float64(sum.WallNS) * float64(workers))
	}
	if bo.Sink != nil {
		_ = bo.Sink.Emit(sum.Record())
	}
	return sum
}
