package serve

import (
	"context"
	"fmt"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

// schedulers is the agent engine's one table of scheduler keys. check
// validates a population (n mobile agents, plus a leader when
// withLeader is set) for the key without building anything; build
// constructs the scheduler for a population check accepted. Eclipse, an
// attack-study scheduler with knobs the job schema doesn't carry, is
// namesim's own swap (see cmd/namesim).
var schedulers = map[string]struct {
	check func(n int, withLeader bool) error
	build func(n int, withLeader bool, seed int64) sched.Scheduler
}{
	"random": {sched.CheckPopulation, func(n int, withLeader bool, seed int64) sched.Scheduler {
		return sched.NewRandom(n, withLeader, seed)
	}},
	"roundrobin": {sched.CheckPopulation, func(n int, withLeader bool, _ int64) sched.Scheduler {
		return sched.NewRoundRobin(n, withLeader)
	}},
	"matching": {func(n int, withLeader bool) error {
		if withLeader {
			return fmt.Errorf("matching scheduler is leaderless only")
		}
		return sched.CheckMatching(n)
	}, func(n int, _ bool, _ int64) sched.Scheduler {
		return sched.NewMatching(n)
	}},
}

// checkScheduler validates a scheduler key for proto over n mobile
// agents without building a scheduler: the admission half of
// buildScheduler.
func checkScheduler(proto core.Protocol, n int, schedKey string) error {
	s, ok := schedulers[schedKey]
	if !ok {
		return fmt.Errorf("unknown scheduler %q (random | roundrobin | matching)", schedKey)
	}
	return s.check(n, core.HasLeader(proto))
}

// buildScheduler builds the agent engine's scheduler for a scheduler
// key, failing where checkScheduler does. The per-trial scheduler seed
// is trialSeed+1, matching the stabilization experiments, so a seeded
// service job replays the equivalent direct run exactly.
func buildScheduler(proto core.Protocol, n int, schedKey string, seed int64) (sched.Scheduler, error) {
	if err := checkScheduler(proto, n, schedKey); err != nil {
		return nil, err
	}
	return schedulers[schedKey].build(n, core.HasLeader(proto), seed), nil
}

// headerFor builds a validated spec's stream header under the given
// tool name. It is the first record of every result stream; its seed
// is the resolved one, so the stream is self-describing for replay.
func headerFor(v *validated, tool string) obs.Header {
	sp := v.spec
	hdr := obs.NewHeader(tool)
	hdr.N = sp.N
	hdr.Scheduler = sp.Sched
	hdr.Init = sp.Init
	hdr.Budget = sp.Budget
	hdr.Trials = sp.Trials
	hdr.Workers = sp.Workers
	hdr.Seed = sp.Seed
	hdr.SeedDerived = v.seedDerived
	if v.proto != nil {
		hdr.Protocol = v.proto.Name()
		hdr.P = v.proto.P()
		hdr.States = v.proto.States()
		hdr.Leader = core.HasLeader(v.proto)
	} else {
		hdr.P = sp.P
	}
	if sp.Engine == "count" {
		hdr.Engine = "count"
	}
	return hdr
}

// header builds the job's stream header.
func (j *Job) header() obs.Header {
	hdr := headerFor(j.v, "ppserved")
	if j.traceID != 0 {
		hdr.Trace = j.traceID.String()
	}
	return hdr
}

// supervisionFor translates a validated spec's bounds into a
// sim.Supervision wired to sink (tracing disabled).
func supervisionFor(v *validated, sink obs.Sink) sim.Supervision {
	sp := v.spec
	return sim.Supervision{
		StepBudget: sp.Budget,
		Deadline:   time.Duration(sp.DeadlineMS) * time.Millisecond,
		StallQuiet: sp.Stall,
		Retries:    sp.Retries,
		Sink:       sink,
	}
}

// supervision is supervisionFor against the job's result buffer,
// carrying the job's trace context (disabled for untraced jobs) so
// attempt/slice spans parent under the job's root span.
func (j *Job) supervision() sim.Supervision {
	sup := supervisionFor(j.v, j.buf)
	sup.Trace = j.traceCtx()
	return sup
}

// execute runs the job's workload on the worker goroutine, streaming
// records into the job buffer. Cancellation arrives through j.ctx and
// aborts at the next supervision check; the generic lifecycle
// (state transition, terminal record, buffer close) is runJob's.
//
// Every stream starts with the job header; a traced stream follows it
// with the sealed queue span, so the first span a client sees already
// locates the job in its trace before workload records arrive.
func (s *Server) execute(j *Job) error {
	if err := j.buf.Emit(j.header()); err != nil {
		return err
	}
	j.queueSpan.End()
	switch j.v.spec.Kind {
	case KindSim:
		return s.runSim(j)
	case KindBatch:
		if s.distEligible(j) {
			return s.runDistBatch(j)
		}
		return s.runBatch(j)
	case KindCampaign:
		return s.runCampaign(j)
	case KindTable1:
		return s.runTable1(j)
	default:
		return fmt.Errorf("unreachable job kind %q", j.v.spec.Kind)
	}
}

// runSim executes the job's one supervised trial through superviseSim,
// the sim-job run path namesim shares (Prepared.RunSim).
func (s *Server) runSim(j *Job) error {
	sp := j.v.spec
	bo := sim.BatchObs{Sink: j.buf, ProgressEvery: sp.ProgressEvery}
	sr := superviseSim(j.ctx, j.v, j.supervision(), func(_ int, _ int64, t sim.Trial) sim.Executor {
		ex := sim.NewExecutor(j.v.proto, t, nil, bo, 0)
		j.setLive(ex.Observer())
		return ex
	})
	j.setSummary(&JobSummary{
		Status:      sr.Status.String(),
		Reason:      sr.Reason,
		Converged:   sr.Converged,
		ValidNaming: sr.ValidNaming(),
		Steps:       int64(sr.Steps),
		NonNull:     int64(sr.NonNull),
		OK:          sr.Status != sim.TrialAborted,
	})
	s.met.trialSteps.Add(uint64(sr.Steps))
	s.met.trialNonNull.Add(uint64(sr.NonNull))
	s.met.trialsRun.Inc()
	if sr.Converged {
		s.met.trialsConverged.Inc()
	}
	return nil
}

// superviseSim runs a sim job's one supervised trial: attempt 0 on the
// job seed, retry attempt a on sim.DeriveSeed(seed, 0, a), each
// attempt's trial from trialFor. build turns the trial into its
// executor, which lets a front end attach what the job schema does not
// carry before it runs.
func superviseSim(ctx context.Context, v *validated, sup sim.Supervision, build func(attempt int, seed int64, t sim.Trial) sim.Executor) sim.SupervisedResult {
	return sim.Supervise(ctx, sup, func(attempt int) sim.Executor {
		seed := v.spec.Seed
		if attempt > 0 {
			seed = sim.DeriveSeed(seed, 0, attempt)
		}
		return build(attempt, seed, trialFor(v, seed))
	})
}

// trialFor builds one attempt's trial from its seed, on the spec's
// engine: agent trials take the configuration from seed, the scheduler
// from seed+1 (matching the stabilization experiments, so a seeded
// service job replays the equivalent direct run exactly) and a fresh
// injector seeded with seed; count trials take the count engine seed
// seed+1, the scheduler-seed role. The keys were validated at
// admission, so the builders cannot fail here.
func trialFor(v *validated, seed int64) sim.Trial {
	sp := v.spec
	t, _ := sim.StartTrial(v.proto, sp.N, sp.Init, sp.Engine == "count", seed)
	if t.Count != nil {
		t.Seed = seed + 1
		return t
	}
	t.Sched, _ = buildScheduler(v.proto, sp.N, sp.Sched, seed+1)
	if !v.plan.Empty() {
		t.Inject, _ = fault.NewInjector(v.plan, v.proto, seed)
	}
	return t
}

// batchTrialMaker builds the per-trial constructor for batches with the
// experiment harness's seed recipe: trialFor(DeriveSeed(jobSeed, trial,
// attempt)). The trial index is the global one, so the same maker
// serves full batches and shard ranges.
func batchTrialMaker(v *validated) func(trial, attempt int) sim.Trial {
	return func(trial, attempt int) sim.Trial {
		return trialFor(v, sim.DeriveSeed(v.spec.Seed, trial, attempt))
	}
}

// shardRange resolves the job's executed trial range: the whole batch,
// or the spec's shard window for the peer side of a distributed job.
func (j *Job) shardRange() (lo, hi int) {
	sp := j.v.spec
	if sp.Shard != nil {
		return sp.Shard.Lo, sp.Shard.Hi
	}
	return 0, sp.Trials
}

// runBatch executes a supervised batch with the experiment harness's
// trial-seed recipe (see batchTrialMaker). A seeded batch job
// therefore replays the equivalent direct sim.RunBatchSupervised call
// record-for-record (the e2e test pins this byte-for-byte modulo
// wall-clock fields). A shard job runs just its range on the same
// global seed recipe.
func (s *Server) runBatch(j *Job) error {
	sp := j.v.spec
	pr := j.v.proto
	lo, hi := j.shardRange()
	bo := sim.BatchObs{Sink: j.buf, ProgressEvery: sp.ProgressEvery}
	sum := sim.RunBatchRangeSupervised(j.ctx, pr, lo, hi, sp.Workers, j.supervision(), bo, batchTrialMaker(j.v))
	j.setSummary(&JobSummary{
		Trials:          sum.Trials,
		TrialsConverged: sum.Converged,
		Aborted:         sum.Aborted,
		Retried:         sum.Retried,
		Steps:           sum.TotalSteps,
		NonNull:         sum.TotalNonNull,
		OK:              sum.Converged == sum.Trials,
	})
	s.met.trialSteps.Add(uint64(sum.TotalSteps))
	s.met.trialNonNull.Add(uint64(sum.TotalNonNull))
	s.met.trialsRun.Add(uint64(sum.Trials))
	s.met.trialsConverged.Add(uint64(sum.Converged))
	return nil
}

// runCampaign executes a fault-injection campaign via
// experiments.Stabilize; cancellation is bridged into the campaign's
// cooperative Interrupt hook.
func (s *Server) runCampaign(j *Job) error {
	sp := j.v.spec
	ap := j.v.proto.(core.ArbitraryInitProtocol) // checked at admission
	res := experiments.Stabilize(sp.Protocol, ap, experiments.StabilizeOptions{
		N:          sp.N,
		Epochs:     sp.Epochs,
		CorruptK:   sp.CorruptK,
		Plan:       j.v.plan,
		Trials:     sp.Trials,
		Budget:     sp.Budget,
		Deadline:   time.Duration(sp.DeadlineMS) * time.Millisecond,
		Retries:    sp.Retries,
		StallQuiet: sp.Stall,
		Workers:    sp.Workers,
		Seed:       sp.Seed,
		Sink:       j.buf,
		Trace:      j.traceCtx(),
		Interrupt:  func() bool { return j.ctx.Err() != nil },
	})
	if err := j.buf.Emit(CampaignRec{V: obs.Version, Type: "campaign", Result: res}); err != nil {
		return err
	}
	j.setSummary(&JobSummary{
		Trials:  res.Trials,
		Aborted: res.Aborted,
		Retried: res.Retried,
		OK:      res.OK,
	})
	s.met.trialsRun.Add(uint64(res.Trials))
	return nil
}

// runTable1 reproduces Table 1, streaming each completed cell as an
// experiment record and finishing with the full-table record;
// cancellation skips the remaining cells.
func (s *Server) runTable1(j *Job) error {
	sp := j.v.spec
	cells := experiments.Table1(experiments.Table1Options{
		P:           sp.P,
		ModelCheckP: sp.ModelCheckP,
		Budget:      sp.Budget,
		Seed:        sp.Seed,
		Workers:     sp.Workers,
		Interrupt:   func() bool { return j.ctx.Err() != nil },
		OnCell: func(i int, c experiments.Cell) {
			rec := obs.NewExperimentRec(fmt.Sprintf("table1/%s/%s", c.Leader, c.Rules), "E1", c.OK, c.WallNS)
			rec.Detail = c.Evidence
			_ = j.buf.Emit(rec)
		},
	})
	if err := j.buf.Emit(Table1Rec{V: obs.Version, Type: "table1", Cells: cells}); err != nil {
		return err
	}
	ok := len(cells) > 0
	for _, c := range cells {
		ok = ok && c.OK
	}
	j.setSummary(&JobSummary{Cells: len(cells), OK: ok})
	return nil
}
