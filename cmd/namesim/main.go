// Command namesim runs one naming-protocol execution and reports the
// outcome: final configuration, interaction counts, and (optionally) a
// fairness audit of the schedule that was played.
//
// Usage:
//
//	namesim -protocol asym -p 8 -n 8 -sched roundrobin -init zero
//	namesim -protocol selfstab -p 6 -n 6 -sched random -init arbitrary -audit
//	namesim -protocol symglobal -p 5 -n 4 -sched matching -budget 100000
//	namesim -protocol asym -journal out.jsonl -metrics -progress-every 100000
//	namesim -protocol asym -engine interp -seed 7   # force interface dispatch
//	namesim -protocol selfstab -init arbitrary -faults '@conv:corrupt=3,@conv:corrupt=3'
//	namesim -protocol asym -faults '@5000:crash=1' -deadline 30s -stall 1000000 -retries 2
//	namesim -protocol asym -engine count -n 100000000 -budget 10000000
//
// A run is a ppserved sim job: the flags map onto a serve.Spec of kind
// "sim", admission (serve.Prepare) validates it and fills its defaults,
// and the trial runs under the supervisor with the service's seed
// recipe — configuration from -seed, scheduler (or count engine) from
// -seed+1, retries on derived seeds. The same flags therefore give the
// same records as the same job posted to ppserved, apart from the
// header's tool name. Only what the job schema does not carry stays
// namesim's own: -engine interp and -audit act on the agent runner,
// -sched eclipse (with -hidden and -hide) swaps the agent trial's
// scheduler, and -adversary plays the greedy adversary instead of a
// scheduler, unsupervised.
//
// -engine count selects the count-based (Gillespie) engine: the
// configuration is per-state counts, per-step cost is independent of N,
// and N may exceed P (naming is then unachievable by pigeonhole — the
// large-N scaling regime). The count engine knows no agent identities,
// so it is restricted to -sched random and -init zero|uniform and
// rejects -faults (admission names the incompatible feature), -audit
// and -adversary.
//
// Fault injection and supervision (see docs/robustness.md): -faults
// takes a fault-plan string (events "@step:kind=arg" or
// "@conv:kind=arg"; kinds corrupt, leader, crash, churn, omit) executed
// mid-run; -deadline bounds the run's wall clock, -stall declares a
// stall after that many consecutive null interactions (0: no stall
// detection) and -retries allows that many stall retries on derived
// seeds. The trial status (ok | retried | aborted) is reported with the
// result.
//
// Protocols: asym, symglobal, initleader, selfstab, globalp, counting,
// naive (see -list).
//
// Observability (see docs/observability.md): -journal writes a JSONL
// run journal (header, periodic progress snapshots, final summary with
// per-rule fire counts), -metrics prints the metrics tables after the
// run, -pprof captures CPU and heap profiles, and -seed 0 auto-derives
// a seed from the clock — the seed actually used is always printed and
// journaled so any run can be replayed exactly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"popnaming/internal/adversary"
	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/fairness"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
	"popnaming/internal/serve"
	"popnaming/internal/sim"
	"popnaming/internal/trace"
)

// options collects the parsed command line.
type options struct {
	proto    string
	p, n     int
	sched    string
	init     string
	engine   string
	seed     int64
	derived  bool
	budget   int
	audit    bool
	adv      bool
	hidden   int
	hide     int
	faults   string
	deadline time.Duration
	retries  int
	stall    int
	journal  string
	metrics  bool
	progress int
	pprof    string
}

func main() {
	var (
		protoKey = flag.String("protocol", "asym", "protocol to run (see -list)")
		p        = flag.Int("p", 8, "population bound P")
		n        = flag.Int("n", 0, "population size N (default P)")
		schedKey = flag.String("sched", "random", "scheduler: random | roundrobin | matching | eclipse")
		initKey  = flag.String("init", "zero", "initialization: zero | uniform | arbitrary")
		engine   = flag.String("engine", "compiled", "execution engine: compiled | interp | count")
		seed     = flag.Int64("seed", 1, "random seed (0: auto-derive from the clock; the seed used is printed)")
		budget   = flag.Int("budget", 50_000_000, "max interactions")
		audit    = flag.Bool("audit", false, "audit the played schedule for weak fairness")
		adv      = flag.Bool("adversary", false, "use the greedy anti-naming adversary (enforced weak fairness) instead of -sched")
		hidden   = flag.Int("hidden", 0, "eclipse scheduler: agent to hide")
		hide     = flag.Int("hide", 100000, "eclipse scheduler: steps to hide for")
		faults   = flag.String("faults", "", "fault plan, e.g. '@5000:corrupt=3,@conv:crash=1' (see docs/robustness.md)")
		deadline = flag.Duration("deadline", 0, "wall-clock deadline for the run, retries included (0: none)")
		retries  = flag.Int("retries", 0, "stall retries with derived seeds before aborting")
		stall    = flag.Int("stall", 0, "quiet-streak length declaring a stall (0: no stall detection)")
		list     = flag.Bool("list", false, "list protocols and exit")
		journal  = flag.String("journal", "", "write a JSONL run journal to this file (see docs/observability.md)")
		metrics  = flag.Bool("metrics", false, "print the run-metrics and rule-firing tables after the run")
		progress = flag.Int("progress-every", 1_000_000, "journal a progress snapshot every k interactions (0: final snapshot only)")
		pprofPfx = flag.String("pprof", "", "write CPU/heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	)
	flag.Parse()

	if *list {
		for _, k := range experiments.RegistryKeys() {
			spec, _ := experiments.Lookup(k)
			fmt.Printf("%-12s %-7s %s\n", spec.Key, spec.Fairness, spec.Description)
		}
		return
	}
	o := options{
		proto: *protoKey, p: *p, n: *n, sched: *schedKey, init: *initKey, engine: *engine,
		seed:   *seed,
		budget: *budget, audit: *audit, adv: *adv, hidden: *hidden, hide: *hide,
		faults: *faults, deadline: *deadline, retries: *retries, stall: *stall,
		journal: *journal, metrics: *metrics, progress: *progress, pprof: *pprofPfx,
	}
	// Every flag is checked here, before any journal or profile is
	// opened: a rejected run leaves no files behind.
	pj, err := prepare(&o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "namesim:", err)
		os.Exit(2)
	}
	if err := execute(o, pj); err != nil {
		fmt.Fprintln(os.Stderr, "namesim:", err)
		os.Exit(1)
	}
}

// spec maps the flags onto the job schema. A count run passes -sched
// through, so admission rejects eclipse with the other non-random
// schedulers; an agent run asks for the random scheduler when it plays
// eclipse or the adversary instead.
func (o *options) spec() serve.Spec {
	sp := serve.Spec{
		Kind: serve.KindSim, Protocol: o.proto, P: o.p, N: o.n,
		Sched: o.sched, Init: o.init, Seed: o.seed, Budget: o.budget,
		Faults: o.faults, Retries: o.retries, Stall: o.stall, ProgressEvery: o.progress,
		// Round up, so any positive -deadline stays a deadline.
		DeadlineMS: int64((o.deadline + time.Millisecond - 1) / time.Millisecond),
	}
	if o.engine == "count" {
		sp.Engine = "count"
	} else if o.sched == "eclipse" || o.adv {
		sp.Sched = "random"
	}
	return sp
}

// prepare checks the namesim-only flags, then admits the job spec
// through serve.Prepare, which owns the init and scheduler key tables,
// the bounds and the count engine's incompatibilities. It resolves the
// population size and seed into o.
func prepare(o *options) (*serve.Prepared, error) {
	switch o.engine {
	case "compiled", "interp":
	case "count":
		// The namesim-only flags address individual agents too.
		if o.adv {
			return nil, errors.New("-engine count: incompatible flag -adversary (the greedy adversary picks individual agents)")
		}
		if o.audit {
			return nil, errors.New("-engine count: incompatible flag -audit (a fairness audit needs the agent-level schedule)")
		}
	default:
		return nil, fmt.Errorf("unknown engine %q (compiled | interp | count)", o.engine)
	}
	if o.adv && (o.faults != "" || o.deadline > 0 || o.retries > 0 || o.stall > 0) {
		return nil, errors.New("-faults/-deadline/-retries/-stall cannot be combined with -adversary")
	}
	pj, err := serve.Prepare(o.spec())
	if se := (*serve.Error)(nil); errors.As(err, &se) && se.Kind == "count-incompatible" {
		return nil, fmt.Errorf("-engine count: incompatible %s: %w", se.Feature, err)
	}
	if err != nil {
		return nil, err
	}
	sp := pj.Spec()
	o.n, o.seed, o.derived = sp.N, sp.Seed, pj.SeedDerived()
	if o.eclipse() {
		if o.hidden < 0 || o.hidden >= o.n {
			return nil, fmt.Errorf("eclipse scheduler: hidden agent %d outside [0,%d)", o.hidden, o.n)
		}
		// The eclipse phase schedules the N-1 agents left visible.
		if err := sched.CheckPopulation(o.n-1, core.HasLeader(pj.Proto())); err != nil {
			return nil, fmt.Errorf("eclipse scheduler: hiding one of %d agents: %v", o.n, err)
		}
	}
	return pj, nil
}

// eclipse reports whether the agent trial's scheduler is swapped for
// the eclipse scheduler.
func (o *options) eclipse() bool { return o.sched == "eclipse" && o.engine != "count" && !o.adv }

// execute runs the admitted job: the greedy adversary, or the sim job's
// one supervised trial through pj.RunSim, the service's run path.
func execute(o options, pj *serve.Prepared) (err error) {
	proto := pj.Proto()
	if o.pprof != "" {
		stop, perr := obs.StartPprof(o.pprof)
		if perr != nil {
			return perr
		}
		defer func() {
			if serr := stop(); serr != nil {
				fmt.Fprintln(os.Stderr, "namesim: pprof:", serr)
			}
		}()
	}

	var sink *obs.JournalSink
	if o.journal != "" {
		s, closeFn, jerr := obs.OpenJournal(o.journal)
		if jerr != nil {
			return jerr
		}
		sink = s
		defer func() {
			if cerr := closeFn(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	hdr := pj.Header("namesim")
	if o.adv {
		return runAdversarial(proto, pj.SimTrial().Cfg, o, hdr, sink)
	}

	sp := pj.Spec()
	fmt.Printf("protocol %s (P=%d, %d states/agent, symmetric=%v, leader=%v)\n",
		proto.Name(), proto.P(), proto.States(), proto.Symmetric(), core.HasLeader(proto))
	if sp.Engine == "count" {
		fmt.Printf("population N=%d, engine count, init %s, seed %d%s\n",
			o.n, sp.Init, o.seed, seedNote(o.derived))
	} else {
		if o.eclipse() {
			hdr.Scheduler = "eclipse"
		}
		fmt.Printf("population N=%d, scheduler %s, init %s, seed %d%s\n",
			o.n, hdr.Scheduler, sp.Init, o.seed, seedNote(o.derived))
	}
	fmt.Printf("supervision: plan %q, deadline %v, stall %d, retries %d\n", sp.Faults, o.deadline, sp.Stall, sp.Retries)
	if sink != nil {
		if herr := sink.Emit(hdr); herr != nil {
			return herr
		}
	}

	// Executors attach observers only when given a sink, so -metrics
	// without -journal hands them a discarding one; with neither flag
	// they run unobserved, on the fast path.
	var rs obs.Sink
	if sink != nil {
		rs = sink
	} else if o.metrics {
		rs = obs.Discard
	}
	bo := sim.BatchObs{Sink: rs, ProgressEvery: sp.ProgressEvery}
	var (
		observer *obs.Observer
		inj      *fault.Injector
		col      *trace.Collector
	)
	sr := pj.RunSim(context.Background(), pj.Supervision(rs), func(attempt int, seed int64, t sim.Trial) sim.Executor {
		if attempt > 0 {
			fmt.Printf("retry %d: derived seed %d\n", attempt, seed)
		}
		if o.eclipse() {
			// seed+1 is the scheduler's seed in the trial recipe.
			t.Sched = sched.NewEclipse(o.n, core.HasLeader(proto), o.hidden, o.hide, seed+1)
		}
		ex := sim.NewExecutor(proto, t, nil, bo, 0)
		if r, ok := ex.(*sim.Runner); ok {
			r.Interpret = o.engine == "interp"
			if o.audit {
				col = &trace.Collector{}
				r.OnStep = col.Record
			}
			engine := "interpreted"
			if r.Compiled() {
				engine = "compiled"
			}
			fmt.Printf("engine: %s\n", engine)
			fmt.Printf("start: %s\n", t.Cfg)
		} else {
			fmt.Printf("start: %s\n", t.Count)
		}
		observer, inj = ex.Observer(), t.Inject
		return ex
	})

	fmt.Printf("status: %s (attempts %d", sr.Status, sr.Attempts)
	if sr.Reason != "" {
		fmt.Printf(", reason %s", sr.Reason)
	}
	fmt.Printf(", wall %v)\n", time.Duration(sr.WallNS).Round(time.Millisecond))
	if inj != nil {
		for _, f := range inj.Fired() {
			fmt.Printf("fault: %s fired at step %d\n", f.Event, f.Step)
		}
		plan, _ := fault.Parse(sp.Faults) // admitted, so it parses
		if got, want := len(inj.Fired()), len(plan.Events); got < want {
			fmt.Printf("faults pending: %d of %d events never fired\n", want-got, want)
		}
	}
	fmt.Printf("result: %s\n", sr.Result)
	fmt.Printf("valid naming: %v\n", sr.ValidNaming())
	if sr.Converged {
		fmt.Printf("parallel time: %.1f\n", sr.ParallelTime(o.n))
	}
	if col != nil {
		a := fairness.AuditPairs(col.Pairs(), o.n, core.HasLeader(proto))
		fmt.Printf("%s\n", a)
	}
	if o.metrics {
		fmt.Println()
		observer.Dump(os.Stdout)
	}
	return nil
}

// runAdversarial drives the execution with the greedy anti-naming
// adversary under mechanically enforced weak fairness. The adversarial
// runner only exposes pair events, so journals and metrics from this
// path carry no per-rule fire counts.
func runAdversarial(proto core.Protocol, cfg *core.Config, o options, hdr obs.Header, sink *obs.JournalSink) error {
	fmt.Printf("protocol %s (P=%d, %d states/agent), N=%d, greedy adversary, init %s, seed %d%s\n",
		proto.Name(), proto.P(), proto.States(), o.n, o.init, o.seed, seedNote(o.derived))
	fmt.Printf("start: %s\n", cfg)
	if sink != nil {
		hdr.Scheduler = "greedy-adversary"
		if err := sink.Emit(hdr); err != nil {
			return err
		}
	}
	runner := adversary.NewRunner(proto, cfg, adversary.NewGreedyNaming(proto))
	var observer *obs.Observer
	if sink != nil || o.metrics {
		observer = obs.NewObserver(o.n, core.HasLeader(proto), obs.ObserverOptions{
			Sink:          sink,
			ProgressEvery: o.progress,
		})
	}
	var col trace.Collector
	runner.OnStep = func(e trace.Event) {
		if o.audit {
			col.Record(e)
		}
		if observer != nil {
			observer.ObservePair(e.Pair, e.NonNull)
		}
	}
	silent := runner.Run(o.budget)
	if observer != nil {
		// Surface the enforced-fairness count in the summary record so
		// adversarial runs are auditable like scheduler runs.
		observer.SetForced(int64(runner.Forced()))
		observer.Finish(silent)
	}
	fmt.Printf("silent: %v after %d interactions (%d fairness-forced)\n",
		silent, runner.Steps(), runner.Forced())
	fmt.Printf("valid naming: %v\nfinal: %s\n", cfg.ValidNaming(), cfg)
	if o.audit {
		a := fairness.AuditPairs(col.Pairs(), o.n, core.HasLeader(proto))
		fmt.Printf("%s\n", a)
	}
	if o.metrics {
		fmt.Println()
		observer.Dump(os.Stdout)
	}
	return nil
}

func seedNote(derived bool) string {
	if derived {
		return " (auto-derived)"
	}
	return ""
}
