package experiments

// SuiteEntry tags one runnable experiment of the reproduction suite:
// its CLI selector, its index in DESIGN.md's experiment list, and a
// one-line description. The cmd/experiments binary drives, times and
// journals the suite through this registry.
type SuiteEntry struct {
	// Key is the CLI selector.
	Key string
	// Tag is the experiment index (E1, E12b, ...).
	Tag string
	// Description is a one-line summary.
	Description string
}

// Suite lists every experiment in suite run order.
func Suite() []SuiteEntry {
	return []SuiteEntry{
		{"table1", "E1", "Table 1 feasibility/state-space matrix"},
		{"sweep", "E12", "convergence cost vs N, all protocols"},
		{"fullpop", "E12b", "Protocol 3 N=P cost blow-up"},
		{"recovery", "E13", "corruption / re-convergence"},
		{"ablation", "E14", "U* vs naive sequence"},
		{"separation", "E11", "weak vs global fairness on Protocol 3"},
		{"slack", "E15", "time price of exact space optimality"},
		{"resetablation", "E16", "Protocol 2 without its reset line"},
		{"exact", "E17", "exact expected convergence times"},
		{"thm11", "E18", "Theorem 11 beyond model-checkable sizes"},
		{"trajectory", "E19", "convergence trajectories"},
		{"distribution", "E20", "exact convergence-time distributions"},
		{"oracle", "E21", "constructive proof schedules"},
		{"stabilize", "E22", "multi-epoch fault injection / re-convergence"},
		{"countdiff", "E23", "count vs agent engine KS differential"},
		{"countscale", "E24", "count-engine cost at N = 10^3...10^8"},
	}
}

// CountCompatible reports whether the experiment registered under key
// can run entirely on the count engine. Everything else in the suite
// leans on identity-dependent machinery — agent-array schedulers,
// fairness audits, targeted faults, exhaustive state-graph exploration —
// that a counts-only representation cannot express.
func CountCompatible(key string) bool {
	switch key {
	case "countdiff", "countscale":
		return true
	}
	return false
}

// SuiteKeys returns the experiment selectors in suite run order.
func SuiteKeys() []string {
	entries := Suite()
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	return keys
}

// SuiteLookup resolves a CLI experiment selector.
func SuiteLookup(key string) (SuiteEntry, bool) {
	for _, e := range Suite() {
		if e.Key == key {
			return e, true
		}
	}
	return SuiteEntry{}, false
}
