package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/grid"
	"popnaming/internal/obs"
	"popnaming/internal/serve"
	"popnaming/internal/sim"
)

// campaignWorkers is Campaign.Workers: one cell per core on the
// 2-core host the benchmark is sized for.
const campaignWorkers = 2

// minReps is the fewest campaign executions a timed phase makes, even
// when one execution outlasts the phase.
const minReps = 3

// campaignAgentSpec is the campaign-agent grid: the agent engine over
// four protocols, two populations, and a fault-free baseline beside a
// corrupt-at-convergence plan, with stall supervision, retries and
// progress records on. Every cell converges at these sizes (N < P for
// counting, which names only N < P). Cells run in expansion order, so
// the slowest protocols and the larger population come first and the
// two workers finish close together.
func campaignAgentSpec(seed int64) grid.Spec {
	return grid.Spec{
		Name:          "campaign-agent",
		Protocols:     []string{"counting", "selfstab", "symglobal", "asym"},
		Populations:   []grid.Pop{{P: 14, N: 13}, {P: 12, N: 10}},
		Faults:        []string{"", "@conv:corrupt=2"},
		Trials:        24,
		Budget:        20_000_000,
		Stall:         2_000_000,
		Retries:       2,
		ProgressEvery: 200_000,
		Seed:          specSeed(seed),
	}
}

// countGiantSpec is the count-giant grid: asym on the count engine,
// two convergent cells (P = N) and two budget-bounded cells (N > P,
// which asym cannot name, so every trial runs its whole budget). The
// budget clears the slowest P = N = 256 convergence seen (about 9.9M
// interactions over 16 trials) with room to spare. The slowest cell is
// listed first so the two workers finish close together.
func countGiantSpec(seed int64) grid.Spec {
	return grid.Spec{
		Name:      "count-giant",
		Protocols: []string{"asym"},
		Engines:   []string{"count"},
		Populations: []grid.Pop{
			{P: 256, N: 256}, {P: 12, N: 1_000_000}, {P: 12, N: 100_000_000}, {P: 128, N: 128},
		},
		Trials:        1,
		Budget:        12_000_000,
		ProgressEvery: 1_000_000,
		Seed:          specSeed(seed),
	}
}

// specSeed maps the benchmark seed to the non-zero seed of a generated
// spec.
func specSeed(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) | 1
}

// campaignWorkload runs one grid spec through grid.Campaign.Execute on
// the in-process LocalRunner, repeatedly, and checks every execution's
// journals.
type campaignWorkload struct {
	spec grid.Spec
	// converge requires every trial to converge (campaign-agent).
	converge bool

	dir  string
	tal  *tally
	sp   *grid.Spec
	ref  *campaignStats
	last *grid.Result
	// lastCP is the last execution, whose journals verify replays.
	lastCP *grid.Campaign
}

func (w *campaignWorkload) setup(e *env) error {
	raw, err := json.Marshal(w.spec)
	if err != nil {
		return err
	}
	sp, err := grid.Parse(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if err := sp.Validate(); err != nil {
		return err
	}
	w.dir = filepath.Join(e.dir, "campaign")
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	w.sp, w.tal = sp, e.tal
	return nil
}

// timedRunner is the timing decorator around the CellRunner. Untraced
// it only reads the clock around each cell; traced it also records a
// grid.cell span per cell and an obs.write span per journal Write.
type timedRunner struct {
	inner grid.CellRunner
	tr    *tracer
	root  int64 // the grid.execute span

	mu      sync.Mutex
	cellMS  []float64
	writeNS atomic.Int64
}

func (r *timedRunner) RunCell(ctx context.Context, sp *grid.Spec, c grid.Cell, w io.Writer) error {
	group := nextGroup()
	id := r.tr.begin("grid.cell", group, r.root)
	if r.tr != nil {
		w = &timedWriter{w: w, tr: r.tr, group: group, parent: id, ns: &r.writeNS}
	}
	t0 := time.Now()
	err := r.inner.RunCell(ctx, sp, c, w)
	d := time.Since(t0)
	r.tr.end(id)
	r.mu.Lock()
	r.cellMS = append(r.cellMS, msOf(d))
	r.mu.Unlock()
	return err
}

// timedWriter times every journal Write as an obs.write span.
type timedWriter struct {
	w             io.Writer
	tr            *tracer
	group, parent int64
	ns            *atomic.Int64
}

func (tw *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	id := tw.tr.begin("obs.write", tw.group, tw.parent)
	n, err := tw.w.Write(p)
	tw.tr.end(id)
	tw.ns.Add(time.Since(t0).Nanoseconds())
	return n, err
}

// campaignStats is one execution's journals folded into exact counts,
// plus a digest of every journal and summary.csv with wall-clock
// fields removed, which must repeat across executions.
type campaignStats struct {
	digest       [sha256.Size]byte
	interactions int64
	nonNull      int64
	trials       int
	converged    int
	retried      int
	aborted      int
	injections   int
	records      int
	journalBytes int64
	utilization  []float64
	// finalAttempts maps cell index -> trial -> the attempt that
	// produced its last summary (0 unless a stall retry happened).
	finalAttempts map[int]map[int]int
}

func (w *campaignWorkload) measure(e *env, d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase()
	var campaignS, ratesI, ratesJ, cellP50, cellP99, writeMS, idle, execSelf []float64
	cellsFailed := 0
	var last *campaignStats
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start) < d; rep++ {
		out := filepath.Join(w.dir, "out")
		if err := os.RemoveAll(out); err != nil {
			return nil, err
		}
		dec := &timedRunner{inner: grid.LocalRunner{}, tr: tr}
		cp := &grid.Campaign{Spec: w.sp, Runner: dec, Out: out, Workers: campaignWorkers}
		dec.root = tr.begin("grid.execute", nextGroup(), 0)
		t0 := time.Now()
		res, err := cp.Execute(context.Background())
		el := time.Since(t0)
		tr.end(dec.root)
		if err != nil {
			return nil, fmt.Errorf("%s: execute: %w", w.spec.Name, err)
		}
		w.last, w.lastCP = res, cp
		cells := res.Cells
		w.tal.attempt(len(cells) * w.sp.Trials)
		for _, f := range res.Failed {
			w.tal.fail(w.sp.Trials, fmt.Sprintf("cell %s failed: %v", f.Cell.ID(), f.Err))
		}
		cellsFailed += len(res.Failed)
		st := w.check(cp, res)
		last = st
		if w.ref == nil {
			w.ref = st
		} else if st.digest != w.ref.digest {
			w.tal.violation(fmt.Sprintf("%s: execution %d journals differ from execution 0", w.spec.Name, rep))
		}

		secs := el.Seconds()
		campaignS = append(campaignS, secs)
		ratesI = append(ratesI, float64(st.interactions)/secs)
		ratesJ = append(ratesJ, float64(len(cells))/secs)
		var busy float64
		for _, ms := range dec.cellMS {
			busy += ms
		}
		p50, _ := percentile(dec.cellMS, 0.5)
		p99, _ := percentile(dec.cellMS, 0.99)
		cellP50, cellP99 = append(cellP50, p50), append(cellP99, p99)
		writeMS = append(writeMS, float64(dec.writeNS.Load())/1e6)
		idle = append(idle, 1-busy/(campaignWorkers*msOf(el)))
	}
	ph.e2e["campaign_s"] = summarize(campaignS, 0.5, "s")
	ph.e2e["interactions_per_s"] = summarize(ratesI, 0.5, "1/s")
	ph.e2e["jobs_per_s"] = summarize(ratesJ, 0.5, "1/s")
	// A campaign's cells are a fixed mix of very different sizes, so a
	// percentile over all cells of a run can sit in a gap between two
	// cell sizes and jump across it on noise. Each execution's cell
	// percentiles are taken instead, and their median reported.
	ph.e2e["job_p50_ms"] = summarize(cellP50, 0.5, "ms")
	ph.e2e["job_p99_ms"] = summarize(cellP99, 0.5, "ms")
	ph.primary = ph.e2e["campaign_s"].Value
	if tr == nil {
		return ph, nil
	}

	ix := indexSpans(tr.snapshot())
	for _, s := range ix.named("grid.execute") {
		execSelf = append(execSelf, float64(ix.self(s))/1e6)
	}
	var runSelfNS int64
	var traced []float64
	for _, s := range ix.named("grid.cell") {
		runSelfNS += ix.self(s)
		traced = append(traced, float64(s.End-s.Start)/1e6)
	}
	cellMax, _ := percentile(traced, 1)
	st := w.ref
	reps := len(campaignS)
	l := ph.layer
	l["grid.cell_ms.p50"] = summarize(traced, 0.5, "ms")
	l["grid.cell_ms.max"] = exact(cellMax, "ms")
	l["grid.worker_idle_frac"] = summarize(idle, 0.5, "frac")
	l["grid.execute_self_ms"] = summarize(execSelf, 0.5, "ms")
	l["grid.cells_failed"] = exact(float64(cellsFailed), "count")
	l["sim.ns_per_interaction"] = exact(float64(runSelfNS)/float64(st.interactions*int64(reps)), "ns")
	l["sim.batch_util"] = summarize(last.utilization, 0.5, "frac")
	l["fault.injections"] = exact(float64(st.injections), "count")
	l["obs.records"] = exact(float64(st.records), "count")
	l["obs.journal_bytes"] = exact(float64(st.journalBytes), "B")
	l["obs.write_ms"] = summarize(writeMS, 0.5, "ms")
	st.simLayer(l)
	w.isolated(tr, l)
	return ph, nil
}

// simLayer reports the exact per-execution sim counts.
func (st *campaignStats) simLayer(l map[string]stat) {
	l["sim.interactions"] = exact(float64(st.interactions), "count")
	frac := 0.0
	if st.interactions > 0 {
		frac = float64(st.nonNull) / float64(st.interactions)
	}
	l["sim.nonnull_frac"] = exact(frac, "frac")
	l["sim.trials"] = exact(float64(st.trials), "count")
	l["sim.trials_converged"] = exact(float64(st.converged), "count")
	l["sim.trials_retried"] = exact(float64(st.retried), "count")
	l["sim.trials_aborted"] = exact(float64(st.aborted), "count")
}

// isolatedRounds repeats each isolated call so its median is steady.
const isolatedRounds = 5

// isolated times serve.Prepare, the trial makers and the report
// renderers on this workload's own inputs, outside any campaign.
func (w *campaignWorkload) isolated(tr *tracer, l map[string]stat) {
	cells := w.sp.Cells()
	var prepUS, buildUS, renderMS []float64
	for round := 0; round < isolatedRounds; round++ {
		for _, c := range cells {
			g := nextGroup()
			t0 := time.Now()
			p, err := serve.Prepare(w.sp.JobSpec(c))
			t1 := time.Now()
			tr.record("serve.prepare", g, 0, t0, t1)
			if err != nil {
				w.tal.violation(fmt.Sprintf("prepare %s: %v", c.ID(), err))
				continue
			}
			prepUS = append(prepUS, usOf(t1.Sub(t0)))
			buildUS = append(buildUS, timeTrialBuilds(tr, g, p, w.ref.finalAttempts[c.Index])...)
		}
		g := nextGroup()
		id := tr.begin("report.render", g, 0)
		t0 := time.Now()
		tab := grid.SummaryTable(w.sp, w.last.Stats)
		tab.Render(io.Discard)
		_ = tab.RenderCSV(io.Discard)
		_ = tab.RenderLaTeX(io.Discard)
		for _, cs := range w.last.Stats {
			cdf := grid.ConvergenceCDF(cs)
			cdf.RenderASCII(io.Discard, 72, 20)
			_ = cdf.RenderSVG(io.Discard, 640, 400)
		}
		renderMS = append(renderMS, msOf(time.Since(t0)))
		tr.end(id)
	}
	l["serve.prepare_us"] = summarize(prepUS, 0.5, "us")
	l["sim.trial_build_us"] = summarize(buildUS, 0.5, "us")
	l["report.render_ms"] = summarize(renderMS, 0.5, "ms")
}

// timeTrialBuilds times one trial-maker call per (trial, attempt) the
// prepared job ran: for each trial, attempts 0 through attempts[trial]
// (a nil map means attempt 0 only). A sim job is one trial.
func timeTrialBuilds(tr *tracer, group int64, p *serve.Prepared, attempts map[int]int) []float64 {
	js := p.Spec()
	trials := js.Trials
	if js.Kind == serve.KindSim {
		trials = 1
	}
	var out []float64
	if js.Engine == "count" {
		mk := p.CountTrialMaker()
		for t := 0; t < trials; t++ {
			t0 := time.Now()
			_ = mk(t)
			t1 := time.Now()
			tr.record("sim.trial_build", group, 0, t0, t1)
			out = append(out, usOf(t1.Sub(t0)))
		}
		return out
	}
	mk := p.TrialMaker()
	for t := 0; t < trials; t++ {
		for a := 0; a <= attempts[t]; a++ {
			t0 := time.Now()
			_ = mk(t, a)
			t1 := time.Now()
			tr.record("sim.trial_build", group, 0, t0, t1)
			out = append(out, usOf(t1.Sub(t0)))
		}
	}
	return out
}

// check reads back every journal of one execution with obs.ReadJournal
// and applies the output checks: intact journals with a batch summary;
// on campaign-agent every trial converged; on the count engine every
// converged trial's final census is a valid naming, and every
// budget-bounded cell (N > P) ran exactly budget × trials interactions.
func (w *campaignWorkload) check(cp *grid.Campaign, res *grid.Result) *campaignStats {
	st := &campaignStats{finalAttempts: map[int]map[int]int{}}
	h := sha256.New()
	failed := map[int]bool{}
	for _, f := range res.Failed {
		failed[f.Cell.Index] = true
	}
	for _, c := range res.Cells {
		if failed[c.Index] {
			continue
		}
		raw, err := os.ReadFile(cp.JournalPath(c))
		if err != nil {
			w.tal.violation(fmt.Sprintf("cell %s: %v", c.ID(), err))
			continue
		}
		st.journalBytes += int64(len(raw))
		w.checkCell(c, raw, st, h)
	}
	csv, err := os.ReadFile(filepath.Join(cp.Out, "summary.csv"))
	if err != nil {
		w.tal.violation(fmt.Sprintf("summary.csv: %v", err))
	}
	h.Write(csv)
	copy(st.digest[:], h.Sum(nil))
	return st
}

func (w *campaignWorkload) checkCell(c grid.Cell, raw []byte, st *campaignStats, h hash.Hash) {
	attempts, conv := map[int]int{}, map[int]bool{}
	census := map[int][]int{}
	var batch *obs.BatchSummaryRec
	torn, err := obs.ReadJournal(bytes.NewReader(raw), func(rec obs.Rec) error {
		st.records++
		h.Write(canonicalLine(rec.Raw))
		switch rec.Type {
		case "batch_summary":
			batch = rec.Batch
		case "summary":
			conv[rec.Summary.Trial] = rec.Summary.Converged
		case "census":
			census[rec.Census.Trial] = rec.Census.Counts
		case "fault":
			switch rec.Fault.Kind {
			case "retry":
				attempts[rec.Fault.Trial] = rec.Fault.Attempt
			case "abort":
			default:
				st.injections++
			}
		}
		return nil
	})
	switch {
	case err != nil:
		w.tal.violation(fmt.Sprintf("cell %s: read journal: %v", c.ID(), err))
		return
	case torn:
		w.tal.violation(fmt.Sprintf("cell %s: torn journal", c.ID()))
		return
	case batch == nil:
		w.tal.violation(fmt.Sprintf("cell %s: no batch_summary", c.ID()))
		return
	}
	st.finalAttempts[c.Index] = attempts
	st.interactions += batch.TotalSteps
	st.nonNull += batch.TotalNonNull
	st.trials += batch.Trials
	st.converged += batch.Converged
	st.retried += batch.Retried
	st.aborted += batch.Aborted
	st.utilization = append(st.utilization, batch.Utilization)
	if batch.Aborted > 0 {
		w.tal.fail(batch.Aborted, fmt.Sprintf("cell %s: %d trials aborted", c.ID(), batch.Aborted))
	}
	if w.converge && batch.Converged+batch.Aborted < batch.Trials {
		n := batch.Trials - batch.Converged - batch.Aborted
		w.tal.fail(n, fmt.Sprintf("cell %s: %d trials did not converge", c.ID(), n))
	}
	if c.Engine != "count" {
		return
	}
	for t, ok := range conv {
		if ok && !(&core.CountConfig{Counts: census[t]}).ValidNaming() {
			w.tal.fail(1, fmt.Sprintf("cell %s trial %d: converged without a valid naming", c.ID(), t))
		}
	}
	if c.Pop.N > c.Pop.P {
		if want := int64(w.sp.Budget) * int64(w.sp.Trials); batch.TotalSteps != want {
			w.tal.violation(fmt.Sprintf("cell %s: ran %d interactions, want budget×trials = %d", c.ID(), batch.TotalSteps, want))
		}
	}
}

// verify replays every agent-engine cell of the last execution with
// the same admission and batch calls the LocalRunner makes, requires
// the replayed journal to equal the campaign's (wall-clock fields
// aside), and checks that every converged trial's final configuration
// is a valid naming. Count cells were checked from their census
// records already. Cells replay on campaignWorkers goroutines.
func (w *campaignWorkload) verify(*env) {
	if w.lastCP == nil {
		return
	}
	cells := make(chan grid.Cell)
	var wg sync.WaitGroup
	for i := 0; i < campaignWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cells {
				w.replayCell(c)
			}
		}()
	}
	for _, c := range w.sp.Cells() {
		if c.Engine != "count" {
			cells <- c
		}
	}
	close(cells)
	wg.Wait()
}

func (w *campaignWorkload) replayCell(c grid.Cell) {
	p, err := serve.Prepare(w.sp.JobSpec(c))
	if err != nil {
		w.tal.violation(fmt.Sprintf("prepare %s: %v", c.ID(), err))
		return
	}
	var buf bytes.Buffer
	sink := obs.NewJournalSink(&buf)
	_ = sink.Emit(p.Header(grid.Tool))
	js := p.Spec()
	bo := sim.BatchObs{Sink: sink, ProgressEvery: js.ProgressEvery}
	sum := sim.RunBatchRangeSupervised(context.Background(), p.Proto(), 0, js.Trials, js.Workers, p.Supervision(sink), bo, p.TrialMaker())
	orig, err := os.ReadFile(w.lastCP.JournalPath(c))
	if err != nil {
		w.tal.violation(fmt.Sprintf("cell %s: %v", c.ID(), err))
		return
	}
	if !sameRecords(journalLines(orig), journalLines(buf.Bytes())) {
		w.tal.violation(fmt.Sprintf("cell %s: replayed journal differs from the campaign's", c.ID()))
		return
	}
	if c.Fault != "" && !selfStabilizing[c.Protocol] {
		return
	}
	for _, r := range sum.Results {
		if r.Result.Converged && !r.Result.Final.ValidNaming() {
			w.tal.violation(fmt.Sprintf("cell %s trial %d: converged without a valid naming", c.ID(), r.Trial))
		}
	}
}

// selfStabilizing lists the campaign-agent protocols that promise a
// naming from any configuration (Props 12, 13 and 16). counting
// (Protocol 1) promises one only from its initial configuration: after
// @conv:corrupt=2 it can fall silent with homonyms (6 of 8 trials at
// P16/N15 in one probe),
// so its fault cells are checked for convergence but not for naming.
var selfStabilizing = map[string]bool{"asym": true, "symglobal": true, "selfstab": true}

func (w *campaignWorkload) close() {}

// wallClockKeys are the record fields that carry wall-clock readings;
// everything else in a journal is a function of the seed.
var wallClockKeys = []string{"elapsedNs", "wallNs", "utilization", "nodesPerSec", "durNs", "queueWaitNs"}

// canonicalLine re-encodes one journal line with its wall-clock fields
// removed (and keys sorted), so seeded runs compare byte for byte.
func canonicalLine(line []byte) []byte {
	var m map[string]any
	if err := json.Unmarshal(line, &m); err != nil {
		return line
	}
	for _, k := range wallClockKeys {
		delete(m, k)
	}
	out, err := json.Marshal(m)
	if err != nil {
		return line
	}
	return append(out, '\n')
}

// journalLines splits a journal into its non-empty lines.
func journalLines(b []byte) [][]byte {
	var out [][]byte
	for _, l := range bytes.Split(b, []byte("\n")) {
		if len(l) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// sameRecords reports whether two journals' lines hold the same
// records, wall-clock fields aside.
func sameRecords(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(canonicalLine(a[i]), canonicalLine(b[i])) {
			return false
		}
	}
	return true
}
