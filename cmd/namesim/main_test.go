package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"popnaming/internal/experiments"
	"popnaming/internal/obs"
	"popnaming/internal/serve"
)

// TestMain makes the test binary double as the namesim CLI: with
// NAMESIM_CLI=1 in its environment it runs main on its arguments, so
// the tests below drive the real flag surface in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("NAMESIM_CLI") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cli runs namesim with args in a child process and returns its stdout.
func cli(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NAMESIM_CLI=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("namesim %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// wallClock matches the wall-clock parts of namesim's output: the
// journal's timing fields (docs/observability.md) and the trial wall
// time on the status line.
var wallClock = regexp.MustCompile(`"(elapsedNs|wallNs|utilization)":[0-9.e+-]+|, wall [^)]*\)`)

func stripWall(b []byte) []byte { return wallClock.ReplaceAll(b, []byte("<wall>")) }

// countOpts returns a flag set that the count engine accepts; tests
// mutate one field at a time to probe the rejection table.
func countOpts() options {
	return options{
		proto: "asym", p: 12, n: 10, sched: "random", init: "zero",
		engine: "count", sampler: "auto", budget: 1_000_000, seed: 7,
	}
}

// TestCountIncompatibility probes the count engine's rejections. The
// flags the job schema carries are answered by admission
// (serve.Prepare's "count-incompatible" feature names, or a validation
// error); -adversary and -audit, namesim's own, by namesim.
func TestCountIncompatibility(t *testing.T) {
	base := countOpts()
	if _, err := prepare(&base); err != nil {
		t.Fatalf("baseline count options rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*options)
		feature string // admission's count-incompatible feature ("" for namesim's own checks)
		want    string // substring of the rejection message
	}{
		{"adversary", func(o *options) { o.adv = true }, "", "-adversary"},
		{"audit", func(o *options) { o.audit = true }, "", "-audit"},
		{"faults", func(o *options) { o.faults = "@conv:corrupt=2" }, "faults", "inject faults"},
		{"roundrobin", func(o *options) { o.sched = "roundrobin" }, "sched:roundrobin", "random scheduler"},
		{"matching", func(o *options) { o.sched = "matching" }, "sched:matching", "random scheduler"},
		{"eclipse", func(o *options) { o.sched = "eclipse" }, "sched:eclipse", "random scheduler"},
		{"arbitrary", func(o *options) { o.init = "arbitrary" }, "init:arbitrary", "agent array"},
		{"badsampler", func(o *options) { o.sampler = "vose" }, "", `unknown sampler "vose"`},
	}
	for _, c := range cases {
		o := countOpts()
		c.mutate(&o)
		_, err := prepare(&o)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: prepare error = %v, want mention of %q", c.name, err, c.want)
			continue
		}
		var se *serve.Error
		if got := errors.As(err, &se) && se.Kind == "count-incompatible"; got != (c.feature != "") {
			t.Errorf("%s: count-incompatible admission error = %v, want %v", c.name, got, c.feature != "")
		} else if got && se.Feature != c.feature {
			t.Errorf("%s: feature = %q, want %q", c.name, se.Feature, c.feature)
		}
	}
	// uniform init, the explicit samplers and supervision stay accepted.
	for _, ok := range []func(*options){
		func(o *options) { o.init = "uniform" },
		func(o *options) { o.sampler = "fenwick" },
		func(o *options) { o.sampler = "alias" },
		func(o *options) { o.deadline = 1 },
		func(o *options) { o.retries = 1 },
		func(o *options) { o.stall = 10 },
	} {
		o := countOpts()
		ok(&o)
		if _, err := prepare(&o); err != nil {
			t.Errorf("compatible variation rejected: %v", err)
		}
	}
}

// runOpts runs namesim in-process on o.
func runOpts(t *testing.T, o options) {
	t.Helper()
	pj, err := prepare(&o)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := execute(o, pj); err != nil {
		t.Fatalf("execute: %v", err)
	}
}

// TestRunCountEveryProtocol drives the full namesim count path for every
// registry protocol, checking the journal carries the count-engine
// header and census records.
func TestRunCountEveryProtocol(t *testing.T) {
	for _, key := range experiments.RegistryKeys() {
		key := key
		t.Run(key, func(t *testing.T) {
			o := countOpts()
			o.proto = key
			if key == "ssle" {
				o.n = 12
			}
			o.journal = filepath.Join(t.TempDir(), "run.jsonl")
			o.progress = 1000
			runOpts(t, o)
			f, err := os.Open(o.journal)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sc := bufio.NewScanner(f)
			if !sc.Scan() {
				t.Fatal("empty journal")
			}
			var hdr obs.Header
			if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
				t.Fatal(err)
			}
			if hdr.Engine != "count" || hdr.Scheduler != "random" {
				t.Fatalf("header engine=%q scheduler=%q", hdr.Engine, hdr.Scheduler)
			}
			census := 0
			for sc.Scan() {
				if strings.Contains(sc.Text(), `"type":"census"`) {
					census++
				}
			}
			if census == 0 {
				t.Fatal("journal has no census records")
			}
		})
	}
}

// TestRunCountLargeN pins the headline capability: the count path at a
// population the agent engine cannot represent, N far beyond P.
func TestRunCountLargeN(t *testing.T) {
	o := countOpts()
	o.n = 50_000_000
	o.budget = 200_000
	runOpts(t, o)
}

// TestRunTwiceSameBytes runs namesim twice per mode with one seed and
// requires identical stdout and journal bytes, wall-clock fields
// stripped.
func TestRunTwiceSameBytes(t *testing.T) {
	modes := []struct {
		name string
		args []string
		want string // stdout substring showing the mode ran its path
	}{
		{"agent", []string{"-protocol", "selfstab", "-p", "6", "-seed", "3"}, "status: ok"},
		{"faults-retry", []string{"-protocol", "symglobal", "-p", "6", "-init", "arbitrary",
			"-faults", "@200:crash=2", "-stall", "5000", "-retries", "1", "-seed", "1"}, "retry 1: derived seed"},
		{"count", []string{"-protocol", "asym", "-engine", "count", "-p", "12", "-n", "1000",
			"-budget", "200000", "-deadline", "1m", "-retries", "1", "-seed", "4"}, "engine count"},
		{"adversary", []string{"-protocol", "selfstab", "-p", "6", "-adversary", "-init", "arbitrary",
			"-budget", "200000", "-audit", "-seed", "2"}, "fairness-forced"},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			var outs, journals [2][]byte
			for i := range outs {
				path := filepath.Join(dir, fmt.Sprintf("run%d.jsonl", i))
				outs[i] = stripWall(cli(t, append(m.args, "-progress-every", "100", "-journal", path)...))
				j, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				journals[i] = stripWall(j)
			}
			if !bytes.Contains(outs[0], []byte(m.want)) {
				t.Fatalf("stdout lacks %q:\n%s", m.want, outs[0])
			}
			if n := bytes.Count(journals[0], []byte("\n")); n < 3 {
				t.Fatalf("journal has %d records, want a header, progress and a summary", n)
			}
			if !bytes.Equal(outs[0], outs[1]) {
				t.Errorf("stdout differs between runs:\n%s\n---\n%s", outs[0], outs[1])
			}
			if !bytes.Equal(journals[0], journals[1]) {
				t.Errorf("journal differs between runs:\n%s\n---\n%s", journals[0], journals[1])
			}
		})
	}
}

// wallClockKeys are the journal fields excluded from the determinism
// contract (docs/observability.md).
var wallClockKeys = []string{"elapsedNs", "wallNs", "utilization", "durNs", "queueWaitNs"}

// canonRecords parses JSONL records into a comparable form: wall-clock
// fields and the header's tool dropped, service envelope (job) records
// skipped, keys sorted.
func canonRecords(t *testing.T, data []byte) []string {
	t.Helper()
	var out []string
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("bad record %q: %v", line, err)
		}
		if m["type"] == "job" {
			continue
		}
		if m["type"] == "header" {
			delete(m, "tool")
		}
		for _, k := range wallClockKeys {
			delete(m, k)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return out
}

// serveSim runs spec as a sim job on an in-process ppserved and returns
// its result stream.
func serveSim(t *testing.T, base string, spec serve.Spec) []byte {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view serve.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	resp, err = http.Get(base + "/v1/jobs/" + view.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMatchesServedSimJob holds namesim to the service recipe: the
// journal of a namesim run equals the result stream of the same spec
// submitted to ppserved as a sim job, apart from the header's tool,
// wall-clock fields and the service's job records.
func TestMatchesServedSimJob(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 1, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	cases := []struct {
		name string
		args []string
		spec serve.Spec
	}{
		{"agent-arbitrary-faults-retry",
			[]string{"-protocol", "symglobal", "-p", "6", "-init", "arbitrary", "-faults", "@200:crash=2",
				"-stall", "5000", "-retries", "1", "-budget", "2000000", "-progress-every", "500", "-seed", "5"},
			serve.Spec{Kind: "sim", Protocol: "symglobal", P: 6, Init: "arbitrary", Faults: "@200:crash=2",
				Stall: 5000, Retries: 1, Budget: 2_000_000, ProgressEvery: 500, Seed: 5}},
		{"count-n-over-p",
			[]string{"-protocol", "asym", "-engine", "count", "-p", "12", "-n", "1000",
				"-budget", "200000", "-progress-every", "20000", "-seed", "4"},
			serve.Spec{Kind: "sim", Engine: "count", Protocol: "asym", P: 12, N: 1000,
				Budget: 200_000, ProgressEvery: 20_000, Seed: 4}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.jsonl")
			cli(t, append(c.args, "-journal", path)...)
			journal, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := canonRecords(t, journal)
			want := canonRecords(t, serveSim(t, ts.URL, c.spec))
			if len(got) < 3 {
				t.Fatalf("namesim journal has %d records", len(got))
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("namesim and ppserved records differ:\nnamesim:\n%s\nppserved:\n%s",
					strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// TestWorkedExampleJournal re-runs the docs/observability.md "Worked
// example" and fails when its documented journal or the seeded numbers
// quoted in its prose drift from what namesim produces.
func TestWorkedExampleJournal(t *testing.T) {
	doc, err := os.ReadFile("../../docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "## Worked example")
	if !ok {
		t.Fatal("docs/observability.md has no Worked example section")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	blocks := regexp.MustCompile("(?s)```(sh|json)\n(.*?)```").FindAllStringSubmatch(sec, -1)
	if len(blocks) != 2 || blocks[0][1] != "sh" || blocks[1][1] != "json" {
		t.Fatalf("worked example wants one sh and one json block, got %d blocks", len(blocks))
	}
	_, cmd, ok := strings.Cut(strings.ReplaceAll(blocks[0][2], "\\\n", " "), "./cmd/namesim")
	if !ok {
		t.Fatalf("worked example command is not namesim: %q", blocks[0][2])
	}
	args := strings.Fields(cmd)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	for i, a := range args {
		if a == "-journal" && i+1 < len(args) {
			args[i+1] = path
		}
	}
	cli(t, args...)
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, want := canonRecords(t, journal), canonRecords(t, []byte(blocks[1][2]))
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("documented journal drifted; a fresh run gives:\n%s", journal)
	}

	var sum struct {
		Type                        string
		Steps, NonNull, FairnessGap int
	}
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		if sum.Type != "summary" {
			if err := json.Unmarshal(line, &sum); err != nil {
				t.Fatal(err)
			}
		}
	}
	prose := strings.Join(strings.Fields(sec), " ")
	for _, q := range []string{
		fmt.Sprintf("converged in %d interactions of which only %d were non-null", sum.Steps, sum.NonNull),
		fmt.Sprintf("%.0f%% null fraction", 100*float64(sum.Steps-sum.NonNull)/float64(sum.Steps)),
		fmt.Sprintf("worst fairness gap of %d steps", sum.FairnessGap),
	} {
		if !strings.Contains(prose, q) {
			t.Errorf("worked example prose does not say %q", q)
		}
	}
}
