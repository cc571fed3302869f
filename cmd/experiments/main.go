// Command experiments runs the paper-reproduction experiment suite
// (see DESIGN.md's experiment index and EXPERIMENTS.md for recorded
// outcomes):
//
//	experiments table1         Table 1 feasibility/state-space matrix (E1)
//	experiments sweep          convergence cost vs N, all protocols (E12)
//	experiments fullpop        Protocol 3 N=P cost blow-up (E12b)
//	experiments recovery       corruption / re-convergence (E13)
//	experiments ablation       U* vs naive sequence (E14)
//	experiments separation     weak vs global fairness on Protocol 3 (E11)
//	experiments slack          time price of exact space optimality (E15)
//	experiments resetablation  Protocol 2 without its reset line (E16)
//	experiments exact          exact expected convergence times (E17)
//	experiments thm11          Theorem 11 beyond model-checkable sizes (E18)
//	experiments trajectory     convergence trajectories (E19)
//	experiments distribution   exact convergence-time distributions (E20)
//	experiments oracle         constructive proof schedules (E21)
//	experiments stabilize      multi-epoch fault injection / re-convergence (E22)
//	experiments countdiff      count vs agent engine KS differential (E23)
//	experiments countscale     count-engine cost at N = 10^3…10^8 (E24)
//	experiments all            everything above
//
// -engine selects the execution engine the suite may assume: "agent"
// (default) runs everything; "count" restricts the suite to the
// count-compatible experiments (countdiff, countscale) — "all" then
// means exactly those two, and explicitly selecting an experiment that
// needs identity-dependent machinery (agent schedulers, fairness
// audits, targeted faults, state-graph exploration) is rejected at
// flag-parse time, naming the incompatibility.
//
// With -json the selected experiments are emitted as one JSON document
// on stdout instead of rendered tables (including a "timings" section
// with per-experiment wall-clock times and tags).
//
// The stabilize experiment runs under supervision (see
// docs/robustness.md): -faults overrides its default per-epoch
// corruption plan, -deadline bounds each protocol's batch wall clock,
// and -retries grants stalled trials fresh derived-seed attempts.
//
// Observability (see docs/observability.md): -journal records one
// "experiment" line per experiment run (plus "fault" lines from the
// stabilize experiment), -metrics prints the timing table (and E24's
// wall-clock columns, which stay out of the seeded output),
// -progress-every 1 announces each experiment on stderr as it
// completes, and -pprof captures CPU/heap profiles. The seed actually
// used is always reported, including when -seed 0 auto-derives one.
//
// SIGINT interrupts the suite cleanly: in-flight supervised work is
// aborted and journaled as such, remaining experiments are journaled
// as skipped, the journal is flushed, and the process exits 130. A
// second SIGINT kills the process immediately.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync/atomic"
	"time"

	"popnaming/internal/experiments"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/report"
)

// results accumulates the structured outputs for -json mode. Fields are
// nil when the corresponding experiment was not selected.
type results struct {
	Seed          int64                            `json:"seed"`
	Table1        []experiments.Cell               `json:"table1,omitempty"`
	Sweeps        []experiments.SweepResult        `json:"sweeps,omitempty"`
	FullPop       *experiments.SweepResult         `json:"fullPopulation,omitempty"`
	Recovery      []experiments.RecoveryResult     `json:"recovery,omitempty"`
	UStarAblation *experiments.AblationResult      `json:"ustarAblation,omitempty"`
	Separation    *experiments.SeparationResult    `json:"fairnessSeparation,omitempty"`
	Slack         []experiments.SlackResult        `json:"slack,omitempty"`
	ResetAblation *experiments.ResetAblationResult `json:"resetAblation,omitempty"`
	Exact         []experiments.ExactPoint         `json:"exactTimes,omitempty"`
	Thm11         []experiments.Thm11Point         `json:"thm11Scaling,omitempty"`
	Trajectories  []experiments.Trajectory         `json:"trajectories,omitempty"`
	Distributions []experiments.DistPoint          `json:"distributions,omitempty"`
	Oracle        []experiments.OraclePoint        `json:"oracleSchedules,omitempty"`
	Stabilize     []experiments.StabilizeResult    `json:"stabilize,omitempty"`
	CountDiff     []experiments.CountDiffPoint     `json:"countDifferential,omitempty"`
	CountScale    *experiments.CountScaleResult    `json:"countScale,omitempty"`
	Timings       []obs.ExperimentRec              `json:"timings,omitempty"`
}

// listSuite renders the suite registry: one row per experiment with
// its DESIGN.md tag, CLI selector, compatible engines and description.
func listSuite(w io.Writer) {
	tab := report.NewTable("experiment suite (run with: experiments <key>)",
		"tag", "key", "engines", "description")
	for _, e := range experiments.Suite() {
		engines := "agent"
		if experiments.CountCompatible(e.Key) {
			engines = "agent, count"
		}
		tab.AddRow(e.Tag, e.Key, engines, e.Description)
	}
	tab.Render(w)
}

// engineSelectionError rejects engine/experiment combinations at
// flag-parse time: an unknown engine name, or an explicitly selected
// experiment that the count engine cannot run.
func engineSelectionError(engine, which string) error {
	switch engine {
	case "agent":
		return nil
	case "count":
		if which == "all" || experiments.CountCompatible(which) {
			return nil
		}
		return fmt.Errorf("experiment %q needs the agent engine (identity-dependent machinery); -engine count supports: countdiff countscale", which)
	default:
		return fmt.Errorf("unknown engine %q (agent | count)", engine)
	}
}

// suiteRunner times each selected experiment, journals it, and keeps
// the timing records for the -metrics table and -json output.
type suiteRunner struct {
	sink     *obs.JournalSink
	progress int
	timings  []obs.ExperimentRec
	ok       bool
	// interrupted reports whether SIGINT arrived; once true, run skips
	// every remaining experiment but still journals it as skipped, so
	// the partial journal says exactly what did and did not happen.
	interrupted func() bool
}

// run executes the experiment registered under key. body returns
// whether the experiment's checks passed.
func (sr *suiteRunner) run(key string, body func() bool) {
	entry, _ := experiments.SuiteLookup(key)
	if sr.interrupted != nil && sr.interrupted() {
		rec := obs.NewExperimentRec(key, entry.Tag, false, 0)
		rec.Skipped = true
		rec.Detail = "skipped: interrupted"
		sr.timings = append(sr.timings, rec)
		if sr.sink != nil {
			sr.sink.Emit(rec)
		}
		return
	}
	start := time.Now()
	ok := body()
	rec := obs.NewExperimentRec(key, entry.Tag, ok, time.Since(start).Nanoseconds())
	rec.Detail = entry.Description
	sr.timings = append(sr.timings, rec)
	if sr.sink != nil {
		sr.sink.Emit(rec)
	}
	if sr.progress > 0 && len(sr.timings)%sr.progress == 0 {
		fmt.Fprintf(os.Stderr, "experiments: %s (%s) done in %v\n",
			key, entry.Tag, time.Duration(rec.WallNS).Round(time.Millisecond))
	}
	if !ok {
		sr.ok = false
	}
}

func (sr *suiteRunner) dump(w *os.File) {
	t := report.NewTable("experiment timings", "experiment", "tag", "ok", "wall")
	var total time.Duration
	for _, r := range sr.timings {
		d := time.Duration(r.WallNS)
		total += d
		t.AddRowf(r.Key, r.Tag, r.OK, d.Round(time.Millisecond))
	}
	t.AddRowf("total", "", sr.ok, total.Round(time.Millisecond))
	t.Render(w)
}

func main() {
	var (
		seedFlag = flag.Int64("seed", 1, "random seed (0: auto-derive from the clock; the seed used is reported)")
		p        = flag.Int("p", 6, "population bound for table1 simulation checks")
		mcp      = flag.Int("mcp", 3, "population bound for exhaustive model checks")
		maxP     = flag.Int("maxp", 4, "largest P for the full-population cost probe")
		asJSON   = flag.Bool("json", false, "emit structured JSON instead of tables")
		journal  = flag.String("journal", "", "write a JSONL run journal to this file (see docs/observability.md)")
		metrics  = flag.Bool("metrics", false, "print the per-experiment timing table")
		progress = flag.Int("progress-every", 0, "announce every k-th completed experiment on stderr (0: off)")
		pprofPfx = flag.String("pprof", "", "write CPU/heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
		faults   = flag.String("faults", "", "fault plan for the stabilize experiment, e.g. '@conv:corrupt=2,@conv:crash=1' (default: 3 epochs of @conv:corrupt=2)")
		deadline = flag.Duration("deadline", 0, "wall-clock deadline per stabilize batch (0: none)")
		retries  = flag.Int("retries", 0, "stall-retry allowance per stabilize trial")
		engine   = flag.String("engine", "agent", "execution engine: agent | count (count restricts the suite to count-compatible experiments)")
		list     = flag.Bool("list", false, "list the experiment suite (tag, selector, engines, description) and exit")
	)
	flag.Parse()

	if *list {
		listSuite(os.Stdout)
		return
	}

	var faultPlan *fault.Plan
	if *faults != "" {
		pl, perr := fault.Parse(*faults)
		if perr != nil {
			var pe *fault.ParseError
			if errors.As(perr, &pe) {
				fmt.Fprintf(os.Stderr, "experiments: -faults: bad %s at offset %d: token %q: %s\n",
					pe.Kind, pe.Offset, pe.Token, pe.Reason)
			} else {
				fmt.Fprintln(os.Stderr, "experiments: -faults:", perr)
			}
			os.Exit(2)
		}
		faultPlan = pl
	}

	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	if which != "all" {
		if _, found := experiments.SuiteLookup(which); !found {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (want all | %v)\n",
				which, experiments.SuiteKeys())
			os.Exit(2)
		}
	}
	if err := engineSelectionError(*engine, which); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: -engine:", err)
		os.Exit(2)
	}

	seed, derived := obs.ResolveSeed(*seedFlag)
	seedOut := os.Stdout
	if *asJSON {
		seedOut = os.Stderr
	}
	note := ""
	if derived {
		note = " (auto-derived)"
	}
	fmt.Fprintf(seedOut, "experiments: seed %d%s\n", seed, note)

	if *pprofPfx != "" {
		stop, perr := obs.StartPprof(*pprofPfx)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "experiments:", perr)
			os.Exit(1)
		}
		defer func() {
			if serr := stop(); serr != nil {
				fmt.Fprintln(os.Stderr, "experiments: pprof:", serr)
			}
		}()
	}

	// First SIGINT sets the flag: supervised work aborts at its next
	// check, remaining experiments are skipped, and the journal is
	// flushed before exiting 130. Stopping signal delivery after the
	// first one restores the default disposition, so a second SIGINT
	// kills the process the ordinary way.
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		interrupted.Store(true)
		signal.Stop(sigc)
		fmt.Fprintln(os.Stderr, "experiments: interrupt — finishing up, flushing journal (^C again to kill)")
	}()

	sr := &suiteRunner{progress: *progress, ok: true, interrupted: interrupted.Load}
	var closeJournal func() error
	if *journal != "" {
		s, closeFn, jerr := obs.OpenJournal(*journal)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "experiments:", jerr)
			os.Exit(1)
		}
		sr.sink = s
		closeJournal = closeFn
		hdr := obs.NewHeader("experiments")
		hdr.P = *p
		hdr.Seed = seed
		hdr.SeedDerived = derived
		sr.sink.Emit(hdr)
	}

	runAll := which == "all"
	// sel gates each experiment: selected by name or by "all", minus
	// whatever the chosen engine cannot run (under -engine count, "all"
	// shrinks to the count-compatible experiments).
	sel := func(key string) bool {
		if *engine == "count" && !experiments.CountCompatible(key) {
			return false
		}
		return runAll || which == key
	}
	out := results{Seed: seed}

	if sel("table1") {
		sr.run("table1", func() bool {
			cells := experiments.Table1(experiments.Table1Options{P: *p, ModelCheckP: *mcp, Seed: seed})
			out.Table1 = cells
			if !*asJSON {
				experiments.RenderTable1(os.Stdout, cells)
				fmt.Println()
			}
			for _, c := range cells {
				if !c.OK {
					return false
				}
			}
			return true
		})
	}
	if sel("sweep") {
		sr.run("sweep", func() bool {
			out.Sweeps = experiments.StandardSweeps(seed)
			if !*asJSON {
				experiments.RenderSweeps(os.Stdout, out.Sweeps)
				fmt.Println()
			}
			return true
		})
	}
	if sel("fullpop") {
		sr.run("fullpop", func() bool {
			fp := experiments.FullPopulationCost(seed, *maxP)
			out.FullPop = &fp
			if !*asJSON {
				experiments.RenderSweeps(os.Stdout, []experiments.SweepResult{fp})
				fmt.Println()
			}
			return true
		})
	}
	if sel("recovery") {
		sr.run("recovery", func() bool {
			out.Recovery = experiments.StandardRecovery(seed)
			if !*asJSON {
				experiments.RenderRecovery(os.Stdout, out.Recovery)
				fmt.Println()
			}
			return true
		})
	}
	if sel("ablation") {
		sr.run("ablation", func() bool {
			ab := experiments.UStarAblation(3)
			out.UStarAblation = &ab
			if !*asJSON {
				experiments.RenderAblation(os.Stdout, ab)
				fmt.Println()
			}
			return true
		})
	}
	if sel("separation") {
		sr.run("separation", func() bool {
			sep := experiments.FairnessSeparation(3, seed)
			out.Separation = &sep
			if !*asJSON {
				experiments.RenderSeparation(os.Stdout, sep)
				fmt.Println()
			}
			return true
		})
	}
	if sel("slack") {
		sr.run("slack", func() bool {
			out.Slack = experiments.StandardSlack(seed)
			if !*asJSON {
				experiments.RenderSlack(os.Stdout, out.Slack)
				fmt.Println()
			}
			return true
		})
	}
	if sel("resetablation") {
		sr.run("resetablation", func() bool {
			ra := experiments.ResetAblation(2)
			out.ResetAblation = &ra
			if !*asJSON {
				experiments.RenderResetAblation(os.Stdout, ra)
				fmt.Println()
			}
			return true
		})
	}
	if sel("exact") {
		sr.run("exact", func() bool {
			out.Exact = experiments.ExactTimes()
			if !*asJSON {
				experiments.RenderExact(os.Stdout, out.Exact)
				fmt.Println()
			}
			return true
		})
	}
	if sel("thm11") {
		sr.run("thm11", func() bool {
			out.Thm11 = experiments.Thm11Scaling(6, 500_000, seed)
			if !*asJSON {
				experiments.RenderThm11(os.Stdout, out.Thm11)
				fmt.Println()
			}
			return true
		})
	}
	if sel("trajectory") {
		sr.run("trajectory", func() bool {
			out.Trajectories = experiments.StandardTrajectories(seed)
			if !*asJSON {
				experiments.RenderTrajectories(os.Stdout, out.Trajectories)
				fmt.Println()
			}
			return true
		})
	}
	if sel("distribution") {
		sr.run("distribution", func() bool {
			out.Distributions = experiments.Distributions(2000, seed)
			if !*asJSON {
				experiments.RenderDistributions(os.Stdout, out.Distributions)
				fmt.Println()
			}
			return true
		})
	}
	if sel("oracle") {
		sr.run("oracle", func() bool {
			out.Oracle = experiments.OracleSchedules(seed)
			if !*asJSON {
				experiments.RenderOracle(os.Stdout, out.Oracle)
				fmt.Println()
			}
			return true
		})
	}
	if sel("stabilize") {
		sr.run("stabilize", func() bool {
			opts := experiments.StabilizeOptions{
				Seed:      seed,
				Plan:      faultPlan,
				Deadline:  *deadline,
				Retries:   *retries,
				Interrupt: interrupted.Load,
			}
			if sr.sink != nil {
				opts.Sink = sr.sink
			}
			out.Stabilize = experiments.StabilizeAll(*p, opts)
			if !*asJSON {
				experiments.RenderStabilize(os.Stdout, out.Stabilize)
				fmt.Println()
			}
			if interrupted.Load() {
				return false
			}
			for _, res := range out.Stabilize {
				if !res.OK {
					return false
				}
			}
			return len(out.Stabilize) > 0
		})
	}
	if sel("countdiff") {
		sr.run("countdiff", func() bool {
			out.CountDiff = experiments.CountDifferential(experiments.CountDiffOptions{Seed: seed})
			if !*asJSON {
				experiments.RenderCountDiff(os.Stdout, out.CountDiff)
				fmt.Println()
			}
			for _, pt := range out.CountDiff {
				if !pt.OK {
					return false
				}
			}
			return len(out.CountDiff) > 0
		})
	}
	if sel("countscale") {
		sr.run("countscale", func() bool {
			cs := experiments.CountScale(experiments.CountScaleOptions{Seed: seed})
			out.CountScale = &cs
			if !*asJSON {
				experiments.RenderCountScale(os.Stdout, cs)
				fmt.Println()
			}
			return len(cs.Points) > 0
		})
	}
	out.Timings = sr.timings

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if *metrics {
		sr.dump(seedOut)
		if out.CountScale != nil {
			fmt.Fprintln(seedOut)
			experiments.RenderCountScaleTimings(seedOut, *out.CountScale)
		}
	}
	if closeJournal != nil {
		if err := closeJournal(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: journal:", err)
			os.Exit(1)
		}
	}
	if interrupted.Load() {
		fmt.Fprintln(os.Stderr, "experiments: interrupted; partial results journaled")
		os.Exit(130)
	}
	if !sr.ok {
		fmt.Fprintln(os.Stderr, "experiments: some experiment checks failed")
		os.Exit(1)
	}
}
