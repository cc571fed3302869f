package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"regexp"
	"strings"
	"testing"
)

func parse(t *testing.T, src string) *Spec {
	t.Helper()
	sp, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return sp
}

const minimalSpec = `{"protocols":["asym"],"populations":[{"p":6,"n":4}],"seed":3}`

func TestParseDefaults(t *testing.T) {
	sp := parse(t, minimalSpec)
	if sp.Name != "campaign" || sp.Trials != 10 || sp.Workers != 1 {
		t.Errorf("defaults not filled: %+v", sp)
	}
	wantAxes := [][2]string{
		{sp.Engines[0], "agent"}, {sp.Scheds[0], "random"},
		{sp.Inits[0], "zero"}, {sp.Faults[0], ""},
	}
	for _, a := range wantAxes {
		if a[0] != a[1] {
			t.Errorf("axis default = %q, want %q", a[0], a[1])
		}
	}
	if sp.Seed != 3 || sp.SeedDerived {
		t.Errorf("seed = %d derived=%t", sp.Seed, sp.SeedDerived)
	}
}

func TestParseStrict(t *testing.T) {
	bad := []string{
		`{"protocols":["asym"],"populations":[{"p":6,"n":4}],"protocls":["x"]}`, // typoed axis
		`{"protocols":["asym"],"populations":[{"p":6,"q":4}]}`,                  // typoed pop field
		`{"protocols":["asym"],"populations":[{"p":6,"n":4}]} {"x":1}`,          // trailing object
		`{"populations":[{"p":6,"n":4}]}`,                                       // no protocols
		`{"protocols":["asym"]}`,                                                // no populations
		`{"protocols":["asym","asym"],"populations":[{"p":6,"n":4}]}`,           // dup axis value
		`{"protocols":["asym"],"populations":[{"p":6,"n":4},{"p":6,"n":4}]}`,    // dup population
		`{"protocols":["asym"],"populations":[{"p":6,"n":4}],"trials":-1}`,
		`{"protocols":["asym"],"populations":[{"p":6,"n":4}],"engines":["count"],"faults":["@1:corrupt=1"]}`,
		`{"protocols":["asym"],"populations":[{"p":6,"n":4}],"sampler":"alias"}`, // retired count-sampler knob
	}
	for _, src := range bad {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse accepted %s", src)
		}
	}
	// The retired knob is an unknown field on count grids too, and the
	// error names it.
	src := `{"protocols":["asym"],"populations":[{"p":6,"n":4}],"engines":["count"],"sampler":"alias"}`
	if _, err := Parse(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), `"sampler"`) {
		t.Errorf("count grid with sampler: error %v, want one naming the field", err)
	}
	// Count cells take supervision like agent cells.
	sp := parse(t, `{"protocols":["asym"],"populations":[{"p":6,"n":4}],"engines":["count"],"retries":2}`)
	if err := sp.Validate(); err != nil || sp.Retries != 2 {
		t.Errorf("count grid with retries: retries %d, validate: %v", sp.Retries, err)
	}
}

func TestParseDerivesSeedOnce(t *testing.T) {
	sp := parse(t, `{"protocols":["asym"],"populations":[{"p":6,"n":4}]}`)
	if sp.Seed == 0 || !sp.SeedDerived {
		t.Fatalf("seed not derived: %d", sp.Seed)
	}
	// The resolved seed is baked into the spec: expansion is now
	// deterministic even though the seed came from the clock.
	a, b := sp.Cells(), sp.Cells()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("expansion unstable at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCellsExpansion(t *testing.T) {
	sp := parse(t, `{
		"protocols":["asym","selfstab"],
		"populations":[{"p":6,"n":4},{"p":6,"n":6}],
		"faults":["","@100:corrupt=2"],
		"seed":7}`)
	cells := sp.Cells()
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	// Fault axis is innermost: consecutive pairs share a block and the
	// even one is the baseline.
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
		if c.FaultIdx != i%2 {
			t.Errorf("cell %d FaultIdx = %d", i, c.FaultIdx)
		}
		if c.BaselineIndex() != i-i%2 {
			t.Errorf("cell %d baseline = %d", i, c.BaselineIndex())
		}
		if c.Seed == 0 {
			t.Errorf("cell %d has seed 0", i)
		}
	}
	if cells[0].Protocol != "asym" || cells[7].Protocol != "selfstab" {
		t.Errorf("protocol order wrong: %s .. %s", cells[0].Protocol, cells[7].Protocol)
	}
	// Seeds are pairwise distinct (splitmix over distinct indexes).
	seen := map[int64]int{}
	for i, c := range cells {
		if j, dup := seen[c.Seed]; dup {
			t.Errorf("cells %d and %d share seed %d", j, i, c.Seed)
		}
		seen[c.Seed] = i
	}
}

func TestCellID(t *testing.T) {
	sp := parse(t, `{"protocols":["selfstab"],"populations":[{"p":6,"n":4}],"faults":["","@100:corrupt=2"],"seed":1}`)
	cells := sp.Cells()
	want := []string{"selfstab-agent-p6n4-random-zero-f0", "selfstab-agent-p6n4-random-zero-f1"}
	for i, c := range cells {
		if c.ID() != want[i] {
			t.Errorf("ID = %q, want %q", c.ID(), want[i])
		}
	}
}

func TestValidateRejectsBadCells(t *testing.T) {
	for _, src := range []string{
		`{"protocols":["nosuch"],"populations":[{"p":6,"n":4}],"seed":1}`,
		`{"protocols":["asym"],"populations":[{"p":6,"n":9}],"seed":1}`, // n > p on agent engine
		`{"protocols":["asym"],"populations":[{"p":6,"n":4}],"faults":["@oops"],"seed":1}`,
	} {
		sp := parse(t, src)
		if err := sp.Validate(); err == nil {
			t.Errorf("Validate accepted %s", src)
		}
	}
	if err := parse(t, minimalSpec).Validate(); err != nil {
		t.Errorf("Validate rejected minimal spec: %v", err)
	}
}

// runCellBuf executes one cell through LocalRunner into a buffer.
func runCellBuf(t *testing.T, sp *Spec, c Cell) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (LocalRunner{}).RunCell(context.Background(), sp, c, &buf); err != nil {
		t.Fatalf("RunCell(%s): %v", c.ID(), err)
	}
	return buf.Bytes()
}

func TestReduceLocalCells(t *testing.T) {
	sp := parse(t, `{
		"protocols":["asym"],
		"populations":[{"p":6,"n":4}],
		"faults":["","@50:corrupt=2"],
		"trials":3,"budget":200000,"seed":11}`)
	cells := sp.Cells()
	journals := make(map[int][]byte, len(cells))
	for _, c := range cells {
		journals[c.Index] = runCellBuf(t, sp, c)
	}
	res, err := Reduce(sp, cells, func(c Cell) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(journals[c.Index])), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	base, faulted := res[0], res[1]
	if base.Trials != 3 || base.Converged != 3 {
		t.Errorf("baseline: %d/%d converged", base.Converged, base.Trials)
	}
	if len(base.ConvergedSteps) != 3 || base.Steps.Count != 3 {
		t.Errorf("baseline steps: %+v", base.Steps)
	}
	if base.KS != nil {
		t.Error("baseline cell carries a KS result")
	}
	if base.FaultsInjected != 0 {
		t.Errorf("baseline injected %d faults", base.FaultsInjected)
	}
	if faulted.FaultsInjected == 0 {
		t.Error("faulted cell injected no faults")
	}
	if faulted.Converged > 0 && faulted.KS == nil {
		t.Error("faulted cell with converged trials has no KS result")
	}
}

// A cell where no trial converges reduces to the zero Summary and no
// KS comparison — the empty-sample guards in stats at work.
func TestReduceAllUnconverged(t *testing.T) {
	sp := parse(t, `{
		"protocols":["asym"],
		"populations":[{"p":6,"n":4}],
		"faults":["","@1:corrupt=2"],
		"trials":2,"budget":1,"seed":5}`)
	cells := sp.Cells()
	journals := make(map[int][]byte, len(cells))
	for _, c := range cells {
		journals[c.Index] = runCellBuf(t, sp, c)
	}
	res, err := Reduce(sp, cells, func(c Cell) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(journals[c.Index])), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range res {
		if cs.Converged != 0 || cs.Steps.Count != 0 || cs.Steps.Mean != 0 {
			t.Errorf("cell %s: %+v", cs.Cell.ID(), cs.Steps)
		}
		if cs.KS != nil {
			t.Errorf("cell %s has KS on empty samples", cs.Cell.ID())
		}
		out := SummaryTable(sp, res).String()
		if strings.Contains(out, "NaN") {
			t.Fatalf("NaN leaked into summary table:\n%s", out)
		}
	}
}

// stripWallClock blanks the journal fields outside the determinism
// contract (elapsedNs, wallNs, utilization) so runs can be compared
// byte-for-byte on everything else.
func stripWallClock(b []byte) []byte {
	re := regexp.MustCompile(`"(elapsedNs|wallNs|utilization)":[0-9.eE+-]+`)
	return re.ReplaceAll(b, []byte(`"$1":0`))
}

// TestLocalRunnerDeterministic runs each engine's cell twice on two
// workers sharing the journal sink. Records of different trials
// interleave as the workers are scheduled, but each trial's records,
// in order, must be byte-identical across runs.
func TestLocalRunnerDeterministic(t *testing.T) {
	sp := parse(t, `{"protocols":["asym"],"populations":[{"p":6,"n":4}],"engines":["agent","count"],"trials":4,"workers":2,"budget":100000,"seed":9}`)
	for _, c := range sp.Cells() {
		t.Run(c.Engine, func(t *testing.T) {
			a, b := byTrial(t, runCellBuf(t, sp, c)), byTrial(t, runCellBuf(t, sp, c))
			if len(a) != 4 {
				t.Fatalf("journal covers %d trials, want 4", len(a))
			}
			for trial, recs := range a {
				if recs != b[trial] {
					t.Errorf("trial %d records differ:\n%s\n---\n%s", trial, recs, b[trial])
				}
			}
		})
	}
}

// byTrial groups a journal's wall-clock-stripped lines by trial tag,
// keeping each trial's order (untagged records group with trial 0).
func byTrial(t *testing.T, journal []byte) map[int]string {
	t.Helper()
	out := map[int]string{}
	for _, line := range bytes.SplitAfter(stripWallClock(journal), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Trial int `json:"trial"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		out[probe.Trial] += string(line)
	}
	return out
}

func TestConvergenceCDF(t *testing.T) {
	cs := CellStats{
		Cell:           Cell{Protocol: "asym", Engine: "agent", Pop: Pop{P: 6, N: 4}, Sched: "random", Init: "zero"},
		Trials:         4,
		Converged:      3,
		ConvergedSteps: []float64{300, 100, 200},
	}
	s := ConvergenceCDF(cs)
	if len(s.X) != 3 || s.X[0] != 100 || s.X[2] != 300 {
		t.Errorf("CDF x not sorted: %v", s.X)
	}
	// One trial never converged: the CDF tops out at 3/4.
	if s.Y[2] != 0.75 {
		t.Errorf("CDF top = %v, want 0.75", s.Y[2])
	}
}
