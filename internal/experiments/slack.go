package experiments

import (
	"fmt"
	"io"
	"sort"

	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/report"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

// SlackPoint measures convergence cost for a fixed population N as the
// state budget P grows beyond N.
type SlackPoint struct {
	P           int
	Slack       int // P - N
	MedianSteps float64
	Trials      int
	Failures    int
}

// SlackResult is experiment E15: the time cost of exact space
// optimality. The paper proves P (or P+1) states are necessary and
// sufficient; this experiment quantifies what the tightness costs —
// convergence at N = P is orders of magnitude slower than at N = P - 1,
// and each extra state collapses the cost further. It is the
// quantitative companion of the paper's observation that one additional
// state is "very improbable to be corrupted" yet algorithmically
// decisive.
type SlackResult struct {
	Protocol string
	N        int
	Points   []SlackPoint
}

// SlackOptions configures E15.
type SlackOptions struct {
	// N is the fixed population size (default 8).
	N int
	// MaxSlack is the largest P - N measured (default 8).
	MaxSlack int
	// Trials per point (default 9).
	Trials int
	// Budget per run (default 50M).
	Budget int
	Seed   int64
}

func (o *SlackOptions) fill() {
	if o.N == 0 {
		o.N = 8
	}
	if o.MaxSlack == 0 {
		o.MaxSlack = 8
	}
	if o.Trials == 0 {
		o.Trials = 9
	}
	if o.Budget == 0 {
		o.Budget = 50_000_000
	}
}

// Slack measures E15 for a protocol family under the random scheduler,
// from the all-zero (maximal homonym) start.
func Slack(name string, mkProto func(p int) core.Protocol, opts SlackOptions) SlackResult {
	opts.fill()
	res := SlackResult{Protocol: name, N: opts.N}
	for slack := 0; slack <= opts.MaxSlack; slack++ {
		pr := mkProto(opts.N + slack)
		point := SlackPoint{P: opts.N + slack, Slack: slack, Trials: opts.Trials}
		var steps []float64
		for trial := 0; trial < opts.Trials; trial++ {
			cfg := core.NewConfig(opts.N, 0).WithLeader(core.InitialLeader(pr))
			seed := opts.Seed + int64(slack*1000+trial)
			run := sim.NewRunner(pr, sched.NewRandom(opts.N, core.HasLeader(pr), seed), cfg).Run(opts.Budget)
			if !run.Converged || !cfg.ValidNaming() {
				point.Failures++
				continue
			}
			steps = append(steps, float64(run.Steps))
		}
		if len(steps) > 0 {
			sort.Float64s(steps)
			point.MedianSteps = steps[len(steps)/2]
		}
		res.Points = append(res.Points, point)
	}
	return res
}

// StandardSlack runs E15 for the two protocols whose tight instances are
// empirically exponential.
func StandardSlack(seed int64) []SlackResult {
	return []SlackResult{
		Slack("symglobal-p13/global", func(p int) core.Protocol { return naming.NewSymGlobal(p) },
			SlackOptions{N: 12, MaxSlack: 8, Seed: seed}),
		Slack("globalp-p17/global", func(p int) core.Protocol { return naming.NewGlobalP(p) },
			SlackOptions{N: 4, MaxSlack: 6, Seed: seed}),
	}
}

// RenderSlack prints E15.
func RenderSlack(w io.Writer, results []SlackResult) {
	tab := report.NewTable("E15 — the time price of exact space optimality (median interactions, all-zero start, random scheduler)",
		"protocol", "N", "P", "slack", "median steps", "failures")
	for _, res := range results {
		for _, p := range res.Points {
			tab.AddRowf(res.Protocol, res.N, p.P, p.Slack,
				fmt.Sprintf("%.0f", p.MedianSteps), p.Failures)
		}
	}
	tab.Render(w)
}
