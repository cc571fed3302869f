// Command perfbench is the repository benchmark. It runs one seeded
// workload in-process through the public entry points users call —
// grid.Campaign.Execute on the LocalRunner, or serve.New behind a
// loopback listener driven over the v1 HTTP job API — for a fixed
// time, checks the outputs, and prints its metrics as one JSON object
// on the last line of standard output.
//
//	perfbench --workload campaign-agent|count-giant|service-mix \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// spans. With --trace 1 it spends half the time untraced and half
// traced, and reports the per-layer metrics from the traced half plus
// the tracing overhead. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many set-up processes a run times; setup_s is the
// median.
const setupReps = 21

// decl declares one reported metric and its unit.
type decl struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"campaign_s", "s"},
	{"interactions_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0 there (README.md lists where each one is measured).
var perLayer = []decl{
	{"grid.cell_ms.p50", "ms"},
	{"grid.cell_ms.max", "ms"},
	{"grid.worker_idle_frac", "frac"},
	{"grid.execute_self_ms", "ms"},
	{"grid.cells_failed", "count"},
	{"serve.prepare_us", "us"},
	{"sim.trial_build_us", "us"},
	{"sim.ns_per_interaction", "ns"},
	{"sim.interactions", "count"},
	{"sim.nonnull_frac", "frac"},
	{"sim.trials", "count"},
	{"sim.trials_converged", "count"},
	{"sim.trials_retried", "count"},
	{"sim.trials_aborted", "count"},
	{"sim.batch_util", "frac"},
	{"fault.injections", "count"},
	{"obs.records", "count"},
	{"obs.journal_bytes", "B"},
	{"obs.write_ms", "ms"},
	{"obs.stream_bytes_per_job", "B"},
	{"report.render_ms", "ms"},
	{"serve.admit_ms.p50", "ms"},
	{"serve.admit_ms.p99", "ms"},
	{"serve.ttfb_ms.p50", "ms"},
	{"serve.stream_ms.p50", "ms"},
	{"serve.exec_ms.p50", "ms"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.cache_hit_frac", "frac"},
	{"serve.repeat_share", "frac"},
	{"serve.rejected", "count"},
	{"serve.alloc_kb_per_job", "KB"},
	{"serve.gc_pause_ms", "ms"},
	{"serve.sim_job_ms.p50", "ms"},
	{"serve.cached_job_ms.p50", "ms"},
	{"serve.traced_job_ms.p50", "ms"},
	{"serve.count_job_ms.p50", "ms"},
	{"serve.batch_job_ms.p50", "ms"},
	{"serve.spans_per_traced_job", "count"},
	{"dist.leases_issued", "count"},
	{"dist.leases_reissued", "count"},
	{"dist.leases_duplicate", "count"},
	{"dist.peer_lease_frac", "frac"},
	{"dist.lease_ms.p50", "ms"},
	{"bench.trace_overhead_frac", "frac"},
	{"failed_frac", "frac"},
}

// workload is one benchmark workload. setup is called once, then
// measure once per phase, then verify for the checks that need the
// whole run, then close. A --setup-only process calls setup and close.
type workload interface {
	setup(e *env) error
	measure(e *env, d time.Duration, tr *tracer) (*phase, error)
	verify(e *env)
	close()
}

// env is what a workload gets from the run.
type env struct {
	seed int64
	dir  string // scratch directory, removed when the run ends
	tal  *tally
}

// phase is one timed phase's metrics. primary is the workload's
// primary end-to-end metric (lower is better), the base of the tracing
// overhead.
type phase struct {
	e2e     map[string]stat
	layer   map[string]stat
	primary float64
}

func newPhase() *phase { return &phase{e2e: map[string]stat{}, layer: map[string]stat{}} }

var groups atomic.Int64

// nextGroup returns a fresh span group ID: one per cell or job.
func nextGroup() int64 { return groups.Add(1) }

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func newWorkload(name string, seed int64) workload {
	switch name {
	case "campaign-agent":
		return &campaignWorkload{spec: campaignAgentSpec(seed), converge: true}
	case "count-giant":
		return &campaignWorkload{spec: countGiantSpec(seed)}
	case "service-mix":
		return &serviceWorkload{}
	}
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "campaign-agent | count-giant | service-mix")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced half of the run")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print a line, tear it down and exit (setup_s times this)")
	flag.Parse()
	w := newWorkload(*name, *seed)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload campaign-agent|count-giant|service-mix, --seconds >= 1, --trace 0|1")
		return 2
	}
	out := filepath.Join(".bench_build", "perfbench")
	e := &env{seed: *seed, dir: filepath.Join(out, fmt.Sprintf("%s-%d", *name, os.Getpid())), tal: &tally{}}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.dir)
	defer w.close()

	if *setupOnly {
		if err := w.setup(e); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", *name, err)
			return 1
		}
		fmt.Println("ready")
		return 0
	}
	setupS, err := timeSetups(*name, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", *name, err)
		return 1
	}
	if err := w.setup(e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", *name, err)
		return 1
	}

	d := time.Duration(*seconds) * time.Second
	var untraced, traced *phase
	var tr *tracer
	if *trace == 0 {
		untraced, err = w.measure(e, d, nil)
	} else if untraced, err = w.measure(e, d/2, nil); err == nil {
		tr = newTracer()
		traced, err = w.measure(e, d/2, tr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // Linux reports Maxrss in KiB
	w.verify(e)

	e2e := untraced.e2e
	e2e["setup_s"] = summarize(setupS, 0.5, "s")
	e2e["peak_rss_mb"] = exact(float64(ru.Maxrss)/1024, "MB")
	metrics := e2e
	decls := endToEnd
	if traced != nil {
		metrics, decls = traced.layer, perLayer
		overhead := (traced.primary - untraced.primary) / untraced.primary
		metrics["bench.trace_overhead_frac"] = exact(overhead, "frac")
		ix := indexSpans(tr.snapshot())
		if n := ix.open(); n > 0 {
			e.tal.violation(fmt.Sprintf("%d spans never ended", n))
		}
		metrics["failed_frac"] = exact(e.tal.failedFrac(), "frac")
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := writeSpans(path, ix.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	for _, dc := range decls {
		if _, ok := metrics[dc.name]; !ok {
			metrics[dc.name] = exact(0, dc.unit)
		}
	}
	for _, p := range e.tal.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}

	rec := record{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Host: fingerprint(), EndToEnd: e2e, Attempted: e.tal.attempted, Failed: e.tal.failed}
	if traced != nil {
		rec.PerLayer = metrics
	}
	for name, st := range metrics {
		if math.IsNaN(st.Value) || math.IsInf(st.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", name, st.Value)
			return 1
		}
	}
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
		return 1
	}
	fmt.Println(string(line))
	recPath := filepath.Join(out, fmt.Sprintf("record-%s-seed%d-trace%d.json", *name, *seed, *trace))
	if err := os.WriteFile(recPath, append(line, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}

	type outMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{Correct: e.tal.failed == 0, Attempted: e.tal.attempted, Failed: e.tal.failed, Metrics: map[string]outMetric{}}
	for _, dc := range decls {
		res.Metrics[dc.name] = outMetric{metrics[dc.name].Value, dc.unit}
	}
	final, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		return 1
	}
	fmt.Println(string(final))
	if !res.Correct {
		return 1
	}
	return 0
}

// record is the full result of one run: host, every metric with the
// median, quartiles and count of the samples behind it, and the unit
// counts. It is printed before the result line and kept under
// .bench_build/perfbench.
type record struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Seconds   int             `json:"seconds"`
	Trace     int             `json:"trace"`
	Host      host            `json:"host"`
	EndToEnd  map[string]stat `json:"endToEnd"`
	PerLayer  map[string]stat `json:"perLayer,omitempty"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
}

// host fingerprints the machine and the code measured.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is the checked-out git commit when there is a .git
	// directory.
	Commit string `json:"commit,omitempty"`
}

func fingerprint() host {
	return host{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: gitCommit()}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit resolves .git/HEAD without running git.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, l := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(l, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

// timeSetups runs setupReps --setup-only processes of this binary, one
// after another, and returns each one's time from process start to its
// workload being set up: exec, runtime and package initialisation, and
// the workload's set-up.
func timeSetups(name string, seed int64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var secs []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		if rerr != nil {
			_ = cmd.Process.Kill()
		}
		if werr := cmd.Wait(); rerr != nil || werr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up process %d: read %q (%v), exit %v", i, line, rerr, werr)
		}
		secs = append(secs, d.Seconds())
	}
	return secs, nil
}
