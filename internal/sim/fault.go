package sim

import (
	"popnaming/internal/core"
	"popnaming/internal/fault"
	"popnaming/internal/trace"
)

// Resync rebuilds the compiled engine's incremental census from the
// current configuration. Call it after mutating Cfg from outside the
// runner (fault injection, manual Corrupt between Run calls): the
// census only stays truthful while every change flows through the
// runner, and a stale census makes Silent lie. It also clears the quiet
// streak, since null interactions observed before the mutation say
// nothing about the mutated configuration.
//
// A mutation that introduced states outside the compiled table's domain
// drops the runner to the interface-dispatch path (which imposes no
// such contract), mirroring the engine-selection fallback. On the
// interpreted path Resync only clears the quiet streak.
func (r *Runner) Resync() {
	r.ensureEngine()
	r.quiet = 0
	if r.census == nil {
		return
	}
	if err := r.census.Resync(r.Cfg); err != nil {
		r.tab, r.census = nil, nil
	}
}

// runFault is the injector-aware run loop. It runs the same loop as
// run — advance, with the same silence-check points and counter
// semantics — in stretches that end at the next step-triggered event,
// with three insertions: due step-triggered events fire before the
// interaction that crosses them, each successful silence check offers
// the injector a convergence trigger (the run only returns converged
// once no conv event is pending), and every mutating event resyncs the
// census. Inside an omission burst or while agents are crashed the
// injector may drop interactions, so there it steps one interaction at
// a time through stepFault; everywhere else it takes the fused loop.
func (r *Runner) runFault(maxSteps int) Result {
	inj := r.Inject
	if inj.FireDue(int64(r.steps), r.Cfg) {
		r.Resync()
	}
	if r.silent() {
		if inj.Exhausted() {
			return Result{Converged: true, Steps: r.steps, NonNull: r.nonNull, Final: r.Cfg}
		}
		r.fireConv(inj)
	}
	threshold := r.quietThreshold()
	for r.steps < maxSteps {
		next := inj.NextStep()
		if next >= 0 && int64(r.steps) >= next {
			if inj.FireDue(int64(r.steps), r.Cfg) {
				r.Resync()
			}
			next = inj.NextStep()
		}
		var silent bool
		if inj.Suppressing() {
			r.stepFault(inj)
			silent = r.quiet > 0 && r.quiet%threshold == 0 && r.silent()
		} else {
			bound := maxSteps
			if next >= 0 && next < int64(bound) {
				bound = int(next)
			}
			silent = r.advance(bound)
		}
		if silent {
			// Silence is only terminal once the whole plan has fired:
			// a silent population still interacts (nullly), so pending
			// step-triggered events still happen — the run idles
			// toward them. A pending conv event fires right here.
			if inj.Exhausted() {
				return Result{Converged: true, Steps: r.steps, NonNull: r.nonNull, Final: r.Cfg}
			}
			r.fireConv(inj)
		}
	}
	return Result{Converged: r.silent() && inj.Exhausted(), Steps: r.steps, NonNull: r.nonNull, Final: r.Cfg}
}

// fireConv offers the injector a detected convergence; nothing happens
// when the next plan event is step-triggered (the run idles toward it).
// The quiet streak restarts after every fired event, so the next epoch
// gets a full quiet window before its first silence check.
func (r *Runner) fireConv(inj *fault.Injector) {
	fired, mutated := inj.FireConv(int64(r.steps), r.Cfg)
	if !fired {
		return
	}
	if mutated {
		r.Resync()
	} else {
		r.quiet = 0
	}
}

// stepFault is Step plus injector suppression: a pair the injector
// suppresses (omission burst, crashed agent) consumes the scheduler
// draw and counts as a null interaction, but no transition is applied.
func (r *Runner) stepFault(inj *fault.Injector) {
	var pair core.Pair
	if r.rnd != nil {
		pair = r.rnd.Next()
	} else {
		pair = r.Sched.Next()
	}
	var changed bool
	switch {
	case inj.Suppress(pair):
		if r.Obs != nil {
			r.observeSuppressed(pair)
		}
	case r.tab != nil:
		changed = r.applyCompiled(pair)
	case r.Obs == nil:
		changed = core.ApplyPair(r.Proto, r.Cfg, pair)
	default:
		changed = r.observedApply(pair)
	}
	if r.OnStep != nil {
		r.OnStep(trace.Event{Step: r.steps, Pair: pair, NonNull: changed})
	}
	r.steps++
	if changed {
		r.nonNull++
		r.quiet = 0
	} else {
		r.quiet++
	}
}

// observeSuppressed feeds the observer a suppressed interaction as a
// null event with unchanged states.
func (r *Runner) observeSuppressed(pair core.Pair) {
	if pair.HasLeader() {
		x := r.Cfg.Mobile[pair.MobilePeer()]
		r.Obs.ObserveLeader(pair, x, x, false)
		return
	}
	x, y := r.Cfg.Mobile[pair.A], r.Cfg.Mobile[pair.B]
	r.Obs.ObserveMobile(pair, x, y, x, y, false)
}
