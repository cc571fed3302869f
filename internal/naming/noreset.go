package naming

import "popnaming/internal/core"

// NoReset is the ablation of Protocol 2 for the reset-line experiment
// (E16): identical to SelfStab except that lines 11-12 — "if the guess
// exceeded P and an unnamed agent appears, restart" — are removed. With
// a well-initialized leader it still names (it is then just Protocol 1
// with the extended sequence U_P), but it is NOT self-stabilizing: a
// corrupted leader whose guess starts past P ignores unnamed agents
// forever. This isolates the reset line as the ingredient that buys
// Proposition 16's tolerance of arbitrary leader initialization.
//
// NoReset shares everything but its name and leader rule with SelfStab.
type NoReset struct {
	*SelfStab
}

// NewNoReset returns the ablated protocol for bound p >= 2.
func NewNoReset(p int) *NoReset { return &NoReset{NewSelfStab(p)} }

// Name implements core.Protocol.
func (pr *NoReset) Name() string { return "selfstab-noreset-ablation" }

// LeaderInteract implements core.LeaderProtocol: Protocol 2 WITHOUT the
// reset line.
func (pr *NoReset) LeaderInteract(l core.Leader, x core.State) (core.Leader, core.State) {
	return pr.countStep(l, x)
}
