package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"popnaming/internal/obs"
	"popnaming/internal/serve/store"
)

// countSpec returns a spec the count engine accepts; rejection tests
// mutate one field at a time.
func countSpec() Spec {
	return Spec{
		Kind: KindSim, Protocol: "asym", P: 12, N: 10,
		Engine: "count", Seed: 7, Budget: 1_000_000,
	}
}

// acceptCount marks the cases of TestCountAdmissionRejections that
// count-engine jobs support: admitted and run to done.
const acceptCount = "accept"

// TestCountAdmissionRejections pins the structured 400 contract: every
// identity-dependent feature on a count-engine job is rejected at
// admission with kind "count-incompatible" and the offending feature
// named in the error body. Supervision is not identity-dependent: the
// deadline/retries/stall cases are admitted and run to done.
func TestCountAdmissionRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	cases := []struct {
		name    string
		mutate  func(*Spec)
		feature string // expected Error.Feature; "" means kind "validation"
		extra   map[string]any
	}{
		{"campaign", func(sp *Spec) { sp.Kind = KindCampaign }, "kind:campaign", nil},
		{"table1", func(sp *Spec) { sp.Kind = KindTable1; sp.Protocol = ""; sp.P = 0; sp.N = 0 }, "kind:table1", nil},
		{"faults", func(sp *Spec) { sp.Faults = "@conv:corrupt=2" }, "faults", nil},
		{"deadline", func(sp *Spec) { sp.DeadlineMS = 60_000 }, acceptCount, nil},
		{"retries", func(sp *Spec) { sp.Retries = 1 }, acceptCount, nil},
		{"stall", func(sp *Spec) { sp.Stall = 100 }, acceptCount, nil},
		{"roundrobin", func(sp *Spec) { sp.Sched = "roundrobin" }, "sched:roundrobin", nil},
		{"matching", func(sp *Spec) { sp.Sched = "matching" }, "sched:matching", nil},
		{"arbitrary", func(sp *Spec) { sp.Init = "arbitrary" }, "init:arbitrary", nil},
		// The retired count-sampler knob is an unknown field now.
		{"badsampler", func(*Spec) {}, "", map[string]any{"sampler": "alias"}},
		{"badengine", func(sp *Spec) { sp.Engine = "warp" }, "", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sp := countSpec()
			c.mutate(&sp)
			code, v, e, _ := postJobFields(t, ts, sp, c.extra)
			if c.feature == acceptCount {
				if code != http.StatusAccepted {
					t.Fatalf("status %d, error %+v; want 202", code, e)
				}
				waitState(t, ts, v.ID, StateDone, 30*time.Second)
				return
			}
			if code != http.StatusBadRequest || e == nil {
				t.Fatalf("status %d, error %+v; want 400 with body", code, e)
			}
			if c.feature != "" {
				if e.Kind != "count-incompatible" {
					t.Errorf("kind = %q, want count-incompatible", e.Kind)
				}
				if e.Feature != c.feature {
					t.Errorf("feature = %q, want %q", e.Feature, c.feature)
				}
			} else if e.Kind != "validation" {
				t.Errorf("kind = %q, want validation", e.Kind)
			}
			for field := range c.extra {
				if !strings.Contains(e.Message, `"`+field+`"`) {
					t.Errorf("message %q does not name the field %q", e.Message, field)
				}
			}
		})
	}
}

// TestCountSimJob runs a count sim job end to end: the stream header
// carries the engine, census records follow progress, and the summary
// reports a converged, correctly named population.
func TestCountSimJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	sp := countSpec()
	sp.ProgressEvery = 1000
	code, v, e, _ := postJob(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("status %d, error %+v", code, e)
	}
	if v.Engine != "count" {
		t.Fatalf("view engine=%q", v.Engine)
	}
	done := waitState(t, ts, v.ID, StateDone, 30*time.Second)
	if done.Summary == nil || !done.Summary.OK || !done.Summary.Converged || !done.Summary.ValidNaming {
		t.Fatalf("summary = %+v", done.Summary)
	}
	lines := streamLines(t, ts, v.ID)
	var hdr obs.Header
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Engine != "count" || hdr.Scheduler != "random" || hdr.Init != "zero" {
		t.Fatalf("header engine=%q scheduler=%q init=%q", hdr.Engine, hdr.Scheduler, hdr.Init)
	}
	census := 0
	for _, l := range lines {
		if strings.Contains(string(l), `"type":"census"`) {
			census++
		}
	}
	if census == 0 {
		t.Fatal("stream has no census records")
	}
}

// TestCountBatchJob runs a count batch job and checks the aggregate
// summary plus the closing batch_summary record.
func TestCountBatchJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	sp := countSpec()
	sp.Kind = KindBatch
	sp.Trials = 6
	sp.Workers = 2
	code, v, e, _ := postJob(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("status %d, error %+v", code, e)
	}
	done := waitState(t, ts, v.ID, StateDone, 60*time.Second)
	if done.Summary == nil || !done.Summary.OK || done.Summary.TrialsConverged != 6 {
		t.Fatalf("summary = %+v", done.Summary)
	}
	lines := streamLines(t, ts, v.ID)
	batchSummaries := 0
	for _, l := range lines {
		if strings.Contains(string(l), `"type":"batch_summary"`) {
			batchSummaries++
		}
	}
	if batchSummaries != 1 {
		t.Fatalf("got %d batch_summary records, want 1", batchSummaries)
	}
}

// TestCountLargeN pins the service-level headline: a count job with N
// far beyond both P and the agent engine's practical range is admitted
// and runs (the same N would be rejected for an agent-engine job).
func TestCountLargeN(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	sp := countSpec()
	sp.N = 50_000_000
	sp.Budget = 200_000
	code, v, e, _ := postJob(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("status %d, error %+v", code, e)
	}
	done := waitState(t, ts, v.ID, StateDone, 30*time.Second)
	if done.Summary == nil || done.Summary.Status != "ok" {
		t.Fatalf("summary = %+v", done.Summary)
	}

	// The identical spec on the agent engine is over the N ≤ P bound.
	sp.Engine = ""
	if code, _, e, _ := postJob(t, ts, sp); code != http.StatusBadRequest || e == nil {
		t.Fatalf("agent job at N=5e7: status %d, error %+v", code, e)
	}
}

// TestRestartReplaysRetiredSampler: a WAL written when count jobs still
// took a "sampler" field replays. The admission decoder rejects the
// field, but replay decodes specs leniently: the finished job is
// restored as it was, and the interrupted one re-runs to done on the
// count engine.
func TestRestartReplaysRetiredSampler(t *testing.T) {
	dir := t.TempDir()
	w, err := store.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"kind":"sim","protocol":"asym","p":12,"n":10,"engine":"count","sampler":"alias","seed":7,"budget":1000000}`)
	for _, id := range []string{"j000001", "j000002"} {
		if err := w.Admit(id, spec, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finalize("j000001", store.Final{State: store.StateDone, Summary: []byte(`{"ok":true}`)}); err != nil {
		t.Fatal(err)
	}
	if err := w.SetState("j000002", store.StateRunning); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	wal, err := store.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, QueueCap: 4, Store: wal})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	if got, want := s.met.restored.Value(), uint64(1); got != want {
		t.Fatalf("jobs_restored = %d, want %d", got, want)
	}
	if v := getView(t, ts, "j000001"); v.State != StateDone || v.Engine != "count" {
		t.Fatalf("restored job state=%q engine=%q", v.State, v.Engine)
	}
	done := waitState(t, ts, "j000002", StateDone, 30*time.Second)
	if done.Engine != "count" || done.Summary == nil || !done.Summary.Converged {
		t.Fatalf("re-run job engine=%q summary=%+v", done.Engine, done.Summary)
	}
}
