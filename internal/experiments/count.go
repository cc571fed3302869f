package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/prng"
	"popnaming/internal/report"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
	"popnaming/internal/stats"
)

// CountDiffPoint is one protocol's count-vs-agent engine comparison:
// convergence rates under both engines plus a two-sample
// Kolmogorov-Smirnov test on the convergence-step distributions.
type CountDiffPoint struct {
	Protocol string
	P, N     int
	Trials   int
	// AgentConverged / CountConverged are the per-engine converged-trial
	// counts; their difference is held to a binomial-noise bound.
	AgentConverged int
	CountConverged int
	// KS and Critical report the KS distance and its rejection threshold
	// at Alpha; KSUsed is false when too few trials converged for the
	// distribution test to mean anything (the rate check then stands
	// alone). Converged means silent, not correctly named: `naive` goes
	// silent on wrong names, and both engines must agree on that too.
	KS       float64
	Critical float64
	Alpha    float64
	KSUsed   bool
	OK       bool
	Detail   string
}

// CountDiffOptions configures the E23 differential.
type CountDiffOptions struct {
	// Trials per engine per protocol (default 120).
	Trials int
	// Budget per run (default 400k interactions).
	Budget int
	// Alpha is the KS rejection level (default 1e-3: the engines SHOULD
	// agree, so the test is deliberately hard to fail by noise).
	Alpha float64
	// Seed drives per-trial derived seeds.
	Seed int64
}

func (o *CountDiffOptions) fill() {
	if o.Trials == 0 {
		o.Trials = 120
	}
	if o.Budget == 0 {
		o.Budget = 400_000
	}
	if o.Alpha == 0 {
		o.Alpha = 1e-3
	}
}

// countDiffCase mirrors the sim package's differential fixture: bound
// P=12, N=10 (ssle needs N=P exactly).
func countDiffCase(key string) (core.Protocol, int, int) {
	spec, _ := Lookup(key)
	p, n := 12, 10
	if key == "ssle" {
		n = 12
	}
	return spec.New(p), p, n
}

// countDiffStart builds one trial's starting configuration: arbitrary
// when the protocol supports it (the self-stabilizing workload),
// uniform otherwise — identical to the agent-engine differential suite.
func countDiffStart(pr core.Protocol, n int, seed int64) *core.Config {
	if ap, ok := pr.(core.ArbitraryInitProtocol); ok {
		return sim.ArbitraryConfig(ap, n, prng.New(seed))
	}
	return sim.UniformConfig(pr, n)
}

// CountDifferential is experiment E23: for every registry protocol,
// run the same per-trial starting configurations under the agent engine
// (uniform random scheduler) and the count engine, and demand that the
// convergence-step distributions are statistically indistinguishable.
// Identical seeds cannot reproduce trajectories across engines — the
// randomness is consumed differently — so distribution equality is
// exactly the right (and strongest available) correctness statement.
func CountDifferential(opts CountDiffOptions) []CountDiffPoint {
	opts.fill()
	var out []CountDiffPoint
	for _, key := range RegistryKeys() {
		pr, p, n := countDiffCase(key)
		pt := CountDiffPoint{Protocol: key, P: p, N: n, Trials: opts.Trials, Alpha: opts.Alpha, OK: true}

		// Both engines sample through the batch pool under a one-slice
		// supervision, which is a bare Run(Budget): the same trial seeds,
		// starting configurations and stopping rule on either engine.
		sup := sim.Supervision{StepBudget: opts.Budget, Slice: opts.Budget}
		sample := func(count bool) ([]float64, int) {
			sum := sim.RunBatchSupervised(context.Background(), pr, opts.Trials, 1, sup, sim.BatchObs{}, func(trial, attempt int) sim.Trial {
				seed := sim.DeriveSeed(opts.Seed, trial, attempt)
				cfg := countDiffStart(pr, n, seed)
				if !count {
					return sim.Trial{Cfg: cfg, Sched: sched.NewRandom(n, core.HasLeader(pr), seed+1)}
				}
				cc, _ := core.CountsOf(cfg, pr.States()) // states come from pr, so they fit
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
		var agent, count []float64
		agent, pt.AgentConverged = sample(false)
		// The count engine refuses protocols and populations it cannot
		// run: probe once rather than panic inside the pool.
		cc, _ := core.CountsOf(countDiffStart(pr, n, opts.Seed), pr.States())
		if _, err := sim.NewCountRunner(pr, cc, 0); err != nil {
			pt.OK, pt.Detail = false, err.Error()
		} else {
			count, pt.CountConverged = sample(true)
		}
		if pt.OK {
			// Convergence rates must agree within generous binomial noise
			// (±1/3 of the trial count covers >5 sigma at these sizes).
			if d := pt.AgentConverged - pt.CountConverged; d > opts.Trials/3 || d < -opts.Trials/3 {
				pt.OK = false
				pt.Detail = "convergence rates diverge"
			} else if len(agent) >= 30 && len(count) >= 30 {
				pt.KSUsed = true
				same, d, crit := stats.KSSame(agent, count, opts.Alpha)
				pt.KS, pt.Critical = d, crit
				if !same {
					pt.OK = false
					pt.Detail = "KS rejects distribution equality"
				}
			} else {
				pt.Detail = "too few converged trials for KS; rate check only"
			}
		}
		out = append(out, pt)
	}
	return out
}

// RenderCountDiff prints E23.
func RenderCountDiff(w io.Writer, points []CountDiffPoint) {
	tab := report.NewTable("E23 — count vs agent engine, convergence-step distributions (two-sample KS)",
		"protocol", "P", "N", "trials", "agent conv", "count conv", "KS D", "critical", "ok", "note")
	for _, p := range points {
		ks, crit := "-", "-"
		if p.KSUsed {
			ks = fmt.Sprintf("%.4f", p.KS)
			crit = fmt.Sprintf("%.4f", p.Critical)
		}
		tab.AddRowf(p.Protocol, p.P, p.N, p.Trials, p.AgentConverged, p.CountConverged, ks, crit, p.OK, p.Detail)
	}
	tab.Render(w)
}

// CountScalePoint is one rung of the large-N throughput ladder.
// Steps and NonNull are seeded counts; WallNS and the rates derived
// from it are wall-clock measurements.
type CountScalePoint struct {
	N           int
	Steps       int
	NonNull     int
	WallNS      int64
	StepsPerSec float64
	// NSPerEvent is the wall time per non-null transition: the count
	// engine's unit of work, since it skips null interactions in bulk.
	NSPerEvent float64
}

// CountScaleResult is experiment E24's outcome: count-engine cost
// across population decades on a never-silent workload. FlatnessRatio
// is max/min ns per non-null transition over the rungs with N >= 10^4,
// the range the 2x claim covers; the engine's whole point is that this
// ratio stays near 1 while N grows by four orders of magnitude.
type CountScaleResult struct {
	Protocol      string
	States        int
	Points        []CountScalePoint
	FlatnessRatio float64
}

// CountScaleOptions configures the E24 ladder.
type CountScaleOptions struct {
	// Sizes lists the population rungs (default 10^3 … 10^8).
	Sizes []int
	// Steps is the fixed interaction budget timed per rung (default 20M).
	Steps int
	// Seed seeds each rung's runner.
	Seed int64
}

func (o *CountScaleOptions) fill() {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}
	}
	if o.Steps == 0 {
		o.Steps = 20_000_000
	}
}

// CountScale measures count-engine cost at populations the agent
// engine cannot represent (an agent array at N = 10^8 is 800 MB before
// the first interaction). The workload is the asymmetric naming
// protocol at P=12 with the N agents spread evenly over the 12 names:
// with N > P a valid naming is impossible by pigeonhole, homonym pairs
// always react, and the run never goes silent — every rung runs
// exactly Steps interactions. The even spread gives every rung the
// same shape (about one interaction in 12 is non-null), so the rungs
// differ in N alone; an all-zero start would instead stay nearly all
// homonyms for the whole budget at N = 10^8 but not at N = 10^4.
func CountScale(opts CountScaleOptions) CountScaleResult {
	opts.fill()
	pr := naming.NewAsymmetric(12)
	q := pr.States()
	res := CountScaleResult{Protocol: pr.Name(), States: q}
	minCost, maxCost := 0.0, 0.0
	for _, n := range opts.Sizes {
		cc := core.NewCountConfig(q)
		for s := range cc.Counts {
			cc.Counts[s] = n / q
			if s < n%q {
				cc.Counts[s]++
			}
		}
		pt := CountScalePoint{N: n}
		r, err := sim.NewCountRunner(pr, cc, opts.Seed)
		if err != nil {
			// Out-of-bounds rung (N past the overflow guard): record an
			// empty point rather than dying mid-ladder.
			res.Points = append(res.Points, pt)
			continue
		}
		start := time.Now()
		run := r.Run(opts.Steps)
		pt.WallNS = time.Since(start).Nanoseconds()
		pt.Steps, pt.NonNull = run.Steps, run.NonNull
		if pt.WallNS > 0 {
			pt.StepsPerSec = float64(run.Steps) / (float64(pt.WallNS) / 1e9)
		}
		if run.NonNull > 0 {
			pt.NSPerEvent = float64(pt.WallNS) / float64(run.NonNull)
		}
		if n >= 1e4 && pt.NSPerEvent > 0 {
			if minCost == 0 || pt.NSPerEvent < minCost {
				minCost = pt.NSPerEvent
			}
			if pt.NSPerEvent > maxCost {
				maxCost = pt.NSPerEvent
			}
		}
		res.Points = append(res.Points, pt)
	}
	if minCost > 0 {
		res.FlatnessRatio = maxCost / minCost
	}
	return res
}

// RenderCountScale prints E24's seeded part: interactions and non-null
// transitions per rung, the same bytes for the same seed.
func RenderCountScale(w io.Writer, res CountScaleResult) {
	tab := report.NewTable(
		fmt.Sprintf("E24 — count engine vs N (%s)", res.Protocol),
		"N", "interactions", "non-null")
	for _, p := range res.Points {
		tab.AddRowf(p.N, p.Steps, p.NonNull)
	}
	tab.Render(w)
}

// RenderCountScaleTimings prints E24's wall-clock part: time, rate and
// cost per non-null transition per rung, and the flatness ratio.
func RenderCountScaleTimings(w io.Writer, res CountScaleResult) {
	tab := report.NewTable(
		fmt.Sprintf("E24 timings — count engine vs N (%s)", res.Protocol),
		"N", "wall", "steps/sec", "ns/transition")
	for _, p := range res.Points {
		tab.AddRowf(p.N, time.Duration(p.WallNS).Round(time.Millisecond),
			fmt.Sprintf("%.3g", p.StepsPerSec), fmt.Sprintf("%.1f", p.NSPerEvent))
	}
	tab.Render(w)
	fmt.Fprintf(w, "\ncost flatness (max/min ns per transition, N >= 1e4): %.2fx\n", res.FlatnessRatio)
}
