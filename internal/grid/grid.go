// Package grid turns one declarative campaign spec into a reproducible
// sweep over the protocol/engine/population/scheduler/init/fault
// product, runs every cell locally or against a ppserved node, and
// reduces the per-cell journals into convergence summaries, tables and
// plots (the ppanalyze pipeline).
//
// Reproducibility contract: a spec with a non-zero seed is
// byte-reproducible — cell seeds derive from (grid seed, cell index)
// with the batch seed recipe's splitmix derivation, cells run their
// trials on one worker, and every artifact emitter is wall-clock free —
// so two executions of the same grid, local or remote, produce
// identical CSV/LaTeX/plot artifacts.
package grid

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"popnaming/internal/obs"
	"popnaming/internal/serve"
	"popnaming/internal/sim"
)

// Pop is one population point of the sweep: state-space bound P and
// population size N.
type Pop struct {
	P int `json:"p"`
	N int `json:"n"`
}

// Spec is the campaign grid: axes that multiply into cells, plus
// scalar knobs shared by every cell. JSON decoding is strict — unknown
// fields are rejected so a typoed axis never silently collapses a
// sweep.
type Spec struct {
	// Name labels the campaign in artifacts.
	Name string `json:"name"`

	// Axes. Protocols and Populations are required; the rest default
	// to one-element axes (agent engine, random scheduler, zero init,
	// no faults).
	Protocols   []string `json:"protocols"`
	Engines     []string `json:"engines,omitempty"`
	Populations []Pop    `json:"populations"`
	Scheds      []string `json:"scheds,omitempty"`
	Inits       []string `json:"inits,omitempty"`
	Faults      []string `json:"faults,omitempty"`

	// Shared cell knobs, mirroring the v1 job schema. Trials defaults
	// to 10; Budget 0 selects the service default; Workers is the
	// per-cell trial parallelism and defaults to 1, the deterministic
	// choice (record order across trials follows worker scheduling).
	Trials        int   `json:"trials,omitempty"`
	Budget        int   `json:"budget,omitempty"`
	Workers       int   `json:"workers,omitempty"`
	Stall         int   `json:"stall,omitempty"`
	Retries       int   `json:"retries,omitempty"`
	DeadlineMS    int64 `json:"deadlineMs,omitempty"`
	ProgressEvery int   `json:"progressEvery,omitempty"`

	// Seed is the campaign master seed; 0 derives one from the clock
	// (resolved exactly once, at Parse, and recorded so the run stays
	// replayable). SeedDerived reports which happened.
	Seed        int64 `json:"seed,omitempty"`
	SeedDerived bool  `json:"-"`
}

// Parse decodes a grid spec from JSON, rejecting unknown fields,
// filling defaults and resolving the master seed once.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("grid: trailing data after spec object")
	}
	if err := sp.normalize(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// normalize fills defaults, resolves the seed and validates the axes'
// shape. Per-cell semantic validation (protocol names, fault grammar,
// engine capability) is Validate's, which delegates to the service
// admission path so grid and server reject identically.
func (sp *Spec) normalize() error {
	if sp.Name == "" {
		sp.Name = "campaign"
	}
	if len(sp.Engines) == 0 {
		sp.Engines = []string{"agent"}
	}
	if len(sp.Scheds) == 0 {
		sp.Scheds = []string{"random"}
	}
	if len(sp.Inits) == 0 {
		sp.Inits = []string{"zero"}
	}
	if len(sp.Faults) == 0 {
		sp.Faults = []string{""}
	}
	if sp.Trials == 0 {
		sp.Trials = 10
	}
	if sp.Workers == 0 {
		sp.Workers = 1
	}
	if len(sp.Protocols) == 0 {
		return fmt.Errorf("grid: protocols axis is empty")
	}
	if len(sp.Populations) == 0 {
		return fmt.Errorf("grid: populations axis is empty")
	}
	if sp.Trials < 1 {
		return fmt.Errorf("grid: trials %d < 1", sp.Trials)
	}
	for axis, vals := range map[string][]string{
		"protocols": sp.Protocols, "engines": sp.Engines,
		"scheds": sp.Scheds, "inits": sp.Inits, "faults": sp.Faults,
	} {
		seen := make(map[string]bool, len(vals))
		for _, v := range vals {
			if seen[v] {
				return fmt.Errorf("grid: duplicate %q in %s axis", v, axis)
			}
			seen[v] = true
		}
	}
	seenPop := make(map[Pop]bool, len(sp.Populations))
	for _, p := range sp.Populations {
		if seenPop[p] {
			return fmt.Errorf("grid: duplicate population {p:%d,n:%d}", p.P, p.N)
		}
		seenPop[p] = true
	}
	// The count engine rejects faults at admission; a mixed grid would
	// produce a ragged product, so reject it whole.
	for _, e := range sp.Engines {
		if e != "count" {
			continue
		}
		for _, f := range sp.Faults {
			if f != "" {
				return fmt.Errorf("grid: engine \"count\" cannot combine with fault plan %q (faults target individual agents); split the grid", f)
			}
		}
	}
	sp.Seed, sp.SeedDerived = obs.ResolveSeed(sp.Seed)
	return nil
}

// Cell is one point of the expanded grid. Index is its position in
// expansion order — the stable identity that seeds the cell and names
// its fault baseline.
type Cell struct {
	Index    int
	Protocol string
	Engine   string
	Pop      Pop
	Sched    string
	Init     string
	Fault    string
	// FaultIdx is the cell's position on the fault axis; the fault
	// axis is innermost, so Index-FaultIdx is always the cell's
	// no-fault baseline within its block (KS comparisons key off it).
	FaultIdx int
	// Seed is the cell's job seed, derived from the master seed and
	// Index with the batch recipe's splitmix derivation. It is never 0:
	// the job schema treats 0 as "derive from the clock", which would
	// break replay.
	Seed int64
}

// Cells expands the grid in fixed axis order (protocols, engines,
// populations, scheds, inits, faults — faults innermost) and derives
// each cell's seed. The expansion is a pure function of the spec, so
// equal specs yield equal cell lists.
func (sp *Spec) Cells() []Cell {
	var cells []Cell
	idx := 0
	for _, proto := range sp.Protocols {
		for _, eng := range sp.Engines {
			for _, pop := range sp.Populations {
				for _, sc := range sp.Scheds {
					for _, in := range sp.Inits {
						for fi, f := range sp.Faults {
							seed := sim.DeriveSeed(sp.Seed, idx, 0)
							if seed == 0 {
								seed = 1
							}
							cells = append(cells, Cell{
								Index:    idx,
								Protocol: proto,
								Engine:   eng,
								Pop:      pop,
								Sched:    sc,
								Init:     in,
								Fault:    f,
								FaultIdx: fi,
								Seed:     seed,
							})
							idx++
						}
					}
				}
			}
		}
	}
	return cells
}

// ID is the cell's stable slug, used for journal and plot filenames:
// <protocol>-<engine>-p<P>n<N>-<sched>-<init>-f<K>. The fault plan
// itself appears by axis position (f0, f1, ...) — plan strings contain
// characters hostile to filenames.
func (c Cell) ID() string {
	return fmt.Sprintf("%s-%s-p%dn%d-%s-%s-f%d",
		c.Protocol, c.Engine, c.Pop.P, c.Pop.N, c.Sched, c.Init, c.FaultIdx)
}

// BaselineIndex is the index of the cell's no-fault baseline (itself,
// for fault-free cells).
func (c Cell) BaselineIndex() int { return c.Index - c.FaultIdx }

// JobSpec renders the cell as a v1 batch job spec — the same body a
// ppserved submission carries, and the input to the local admission
// path, so both execution paths validate and run identically.
func (sp *Spec) JobSpec(c Cell) serve.Spec {
	engine := c.Engine
	if engine == "agent" {
		engine = "" // the schema's default; keeps cache keys canonical
	}
	return serve.Spec{
		Kind:          serve.KindBatch,
		Protocol:      c.Protocol,
		P:             c.Pop.P,
		N:             c.Pop.N,
		Sched:         c.Sched,
		Init:          c.Init,
		Engine:        engine,
		Seed:          c.Seed,
		Budget:        sp.Budget,
		Trials:        sp.Trials,
		Workers:       sp.Workers,
		Faults:        c.Fault,
		DeadlineMS:    sp.DeadlineMS,
		Retries:       sp.Retries,
		Stall:         sp.Stall,
		ProgressEvery: sp.ProgressEvery,
	}
}

// Validate runs every cell through the service admission path without
// executing anything, so a bad cell (unknown protocol, fault grammar
// error, count-incompatible combo) fails the whole grid up front — in
// server mode too, before any job is submitted.
func (sp *Spec) Validate() error {
	var errs []string
	for _, c := range sp.Cells() {
		if _, err := serve.Prepare(sp.JobSpec(c)); err != nil {
			errs = append(errs, fmt.Sprintf("cell %s: %v", c.ID(), err))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("grid: %d invalid cell(s):\n  %s", len(errs), strings.Join(errs, "\n  "))
	}
	return nil
}
