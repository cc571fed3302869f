package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"testing"

	"popnaming/internal/sim"
)

// unschedulable lists specs whose population has no interaction the
// requested scheduler can produce: a leaderless agent-engine population
// of one under every scheduler key, a single-agent campaign, and the
// matching scheduler over an odd population.
var unschedulable = []string{
	`{"kind":"sim","protocol":"asym","p":6,"n":1}`,
	`{"kind":"sim","protocol":"asym","p":6,"n":1,"sched":"roundrobin"}`,
	`{"kind":"batch","protocol":"symglobal","p":6,"n":1,"sched":"matching"}`,
	`{"kind":"sim","protocol":"asym","p":6,"n":3,"sched":"matching"}`,
	`{"kind":"campaign","protocol":"asym","p":6,"n":1}`,
	`{"kind":"sim","protocol":"asym","p":6,"n":1,"engine":"count"}`,
}

// decodeSpec decodes a job body exactly as POST /v1/jobs does.
func decodeSpec(body []byte) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&sp)
	return sp, err
}

// TestPrepareRejectsUnschedulable requires a 400 validation error, not
// a panic, for every spec whose population the scheduler cannot serve.
func TestPrepareRejectsUnschedulable(t *testing.T) {
	for _, body := range unschedulable {
		sp, err := decodeSpec([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		_, err = Prepare(sp)
		var e *Error
		if !errors.As(err, &e) || e.Status != http.StatusBadRequest || e.Kind != "validation" {
			t.Errorf("%s: got %v, want a 400 validation error", body, err)
		}
	}
}

// FuzzPrepare fuzzes job-spec admission, a trust boundary: arbitrary
// bytes are decoded as a job body and admitted. Prepare must never
// panic, and every admitted sim or batch spec must build its first
// trial and that trial's executor without panicking — admission builds
// nothing, so this is what shows its checks cover the builders.
func FuzzPrepare(f *testing.F) {
	for _, body := range unschedulable {
		f.Add([]byte(body))
	}
	for _, body := range []string{
		`{"kind":"sim","protocol":"asym","p":6,"n":4,"sched":"matching","seed":3}`,
		`{"kind":"batch","protocol":"selfstab","p":5,"n":1,"sched":"roundrobin","trials":2,"seed":4}`,
		`{"kind":"sim","protocol":"symglobal","p":6,"init":"arbitrary","faults":"@conv:corrupt=2","seed":5}`,
		`{"kind":"batch","protocol":"counting","p":8,"n":100000,"engine":"count","init":"uniform","seed":6}`,
		`{"kind":"sim","protocol":"asym","p":12,"n":4294967297,"engine":"count"}`,
		`{"kind":"campaign","protocol":"asym","p":4,"n":4,"epochs":1,"corruptK":1}`,
		`{"kind":"table1","p":4}`,
		`{"kind":"sim","protocol":"initleader","p":4,"faults":"@10:leader"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := decodeSpec(body)
		if err != nil {
			return
		}
		pj, err := Prepare(sp)
		if err != nil {
			return
		}
		if k := pj.Spec().Kind; k != KindSim && k != KindBatch {
			return
		}
		pr := pj.Proto()
		sim.NewExecutor(pr, pj.SimTrial(), nil, sim.BatchObs{}, 0)
		sim.NewExecutor(pr, pj.TrialMaker()(0, 0), nil, sim.BatchObs{}, 0)
	})
}

// maxTrialBytes bounds the bytes one trial construction may allocate:
// well under the ~5.4 KB table a math/rand (v1) source costs, so
// seeding a trial's generators stays allocation-light.
const maxTrialBytes = 3 << 10

// TestTrialMakerAllocBytes pins the cost of building a trial: an
// agent-engine trial with the random scheduler and no faults, and a
// count-engine trial, each measured by allocation count and by the
// heap bytes one call allocates on average.
func TestTrialMakerAllocBytes(t *testing.T) {
	for _, c := range []struct {
		name   string
		spec   Spec
		allocs float64
	}{
		{"agent", Spec{Kind: KindBatch, Protocol: "asym", P: 8, N: 8, Seed: 7}, 3},
		{"count", Spec{Kind: KindBatch, Protocol: "asym", P: 8, N: 8, Engine: "count", Seed: 7}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			pj, err := Prepare(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			mk := pj.TrialMaker()
			trial := 0
			build := func() {
				mk(trial, 0)
				trial++
			}
			if n := testing.AllocsPerRun(100, build); n > c.allocs {
				t.Errorf("%v allocs per trial, want <= %v", n, c.allocs)
			}
			const runs = 1000
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				build()
			}
			runtime.ReadMemStats(&after)
			if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > maxTrialBytes {
				t.Errorf("%d bytes per trial, want <= %d", b, maxTrialBytes)
			}
		})
	}
}
