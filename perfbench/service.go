package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"popnaming/internal/obs"
	"popnaming/internal/serve"
)

// Service-mix sizing, for a 2-core host: two closed-loop clients, one
// job worker on the coordinator and one on its peer.
const (
	serviceClients = 2
	// leaseTrials splits every 8-16 trial batch into 2-4 leases.
	leaseTrials = 4
	// blockJobs is one client's block of jobs: the unit of the mix and
	// of campaign_s on this workload.
	blockJobs = 40
	// epochBlocks is how many blocks each client runs against one pair
	// of nodes before both are replaced by fresh ones. ppserved keeps
	// every finished job in memory (about 15 KB each) and never evicts
	// one, so against a single long-lived pair the heap grows all run
	// and its GC cost makes throughput and tail latency drift with run
	// length. An epoch of 2000 jobs stands for one server lifetime;
	// peak_rss_mb still shows what that lifetime retains.
	epochBlocks = 25
	// p99Window is how many consecutive jobs each job_p99_ms sample is
	// taken over: 100 lie beyond its 99th percentile, far more than
	// minBeyond. A window may span epochs.
	p99Window = 10000
)

// Jobs of one block by class, in counts out of blockJobs: 75% small
// agent sim jobs with fresh seeds, 10% exact resubmissions of an
// earlier sim job of the same block (result-cache hits), 5% traced sim
// jobs, 5% count-engine sim jobs and 5% batch jobs that shard.
const (
	mixSim    = 30
	mixRepeat = 4
	mixTraced = 2
	mixCount  = 2
	mixBatch  = 2
)

type jobClass int

const (
	classSim jobClass = iota
	classRepeat
	classTraced
	classCount
	classBatch
)

var classNames = [...]string{"sim", "cached", "traced", "count", "batch"}

// plannedJob is one job of a block. A repeat carries the index of the
// earlier job it resubmits.
type plannedJob struct {
	class  jobClass
	spec   serve.Spec
	body   []byte
	target int
}

var mixProtocols = []string{"asym", "symglobal", "selfstab", "counting"}

// planBlock generates one client's block from (seed, client, block).
func planBlock(seed int64, client, block int) []plannedJob {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(client)<<32|uint64(block)))
	classes := make([]jobClass, 0, blockJobs)
	for c, n := range [...]int{classSim: mixSim, classTraced: mixTraced, classCount: mixCount, classBatch: mixBatch} {
		for i := 0; i < n; i++ {
			classes = append(classes, jobClass(c))
		}
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	for r := 0; r < mixRepeat; r++ {
		first := 0
		for classes[first] != classSim {
			first++
		}
		p := first + 1 + rng.IntN(len(classes)-first)
		classes = append(classes[:p], append([]jobClass{classRepeat}, classes[p:]...)...)
	}
	jobs := make([]plannedJob, len(classes))
	for i, c := range classes {
		pj := plannedJob{class: c, target: -1}
		switch c {
		case classRepeat:
			var sims []int
			for k := 0; k < i; k++ {
				if jobs[k].class == classSim {
					sims = append(sims, k)
				}
			}
			pj.target = sims[rng.IntN(len(sims))]
			pj.spec = jobs[pj.target].spec
		case classCount:
			pn := 8 + rng.IntN(9)
			pj.spec = serve.Spec{Kind: serve.KindSim, Protocol: "asym", P: pn, N: pn, Engine: "count"}
		default:
			proto := mixProtocols[rng.IntN(len(mixProtocols))]
			p := 4 + rng.IntN(5)
			n := p - rng.IntN(2)
			if proto == "counting" {
				n = p - 1
			}
			pj.spec = serve.Spec{Kind: serve.KindSim, Protocol: proto, P: p, N: n}
			if c == classTraced {
				pj.spec.Trace = true
			}
			if c == classBatch {
				pj.spec.Kind = serve.KindBatch
				pj.spec.Trials = 8 + rng.IntN(9)
			}
		}
		if c != classRepeat {
			pj.spec.Seed = int64(rng.Uint64()>>2) | 1
		}
		body, err := json.Marshal(pj.spec)
		if err != nil {
			panic(err) // a Spec always marshals
		}
		pj.body = body
		jobs[i] = pj
	}
	return jobs
}

// node is one in-process ppserved: serve.New behind a loopback listener.
type node struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startNode(cfg serve.Config, wrap func(http.Handler) http.Handler) (*node, error) {
	s, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	n := &node{srv: s, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln)
	}()
	return n, nil
}

// stop drains the node's jobs, closes its listener and connections,
// and waits for the serving goroutine to exit. Every client has read
// its last response by then; Close rather than Shutdown, because
// Shutdown waits up to 5 s on a connection a client dialed but never
// used.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n.srv.Drain(ctx)
	_ = n.hs.Close()
	<-n.done
}

// leaseEvent is one dist lease transition as the coordinator journaled
// it. gen tells coordinators apart: job IDs restart with each one.
type leaseEvent struct {
	gen int
	rec obs.LeaseRec
	at  time.Time
}

// leaseSink is the coordinators' service journal (serve.Config.Sink):
// it keeps lease records, timestamped on arrival, and drops the rest.
type leaseSink struct {
	mu     sync.Mutex
	gen    int
	events []leaseEvent
}

// nextGen starts a new coordinator generation and returns it.
func (s *leaseSink) nextGen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	return s.gen
}

func (s *leaseSink) Emit(rec any) error {
	if l, ok := rec.(obs.LeaseRec); ok {
		now := time.Now()
		s.mu.Lock()
		s.events = append(s.events, leaseEvent{gen: s.gen, rec: l, at: now})
		s.mu.Unlock()
	}
	return nil
}

func (s *leaseSink) since(i int) []leaseEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]leaseEvent(nil), s.events[i:]...)
}

func (s *leaseSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// serviceWorkload is service-mix: a coordinator with one peer, both
// in-process, driven over the v1 HTTP job API by closed-loop clients.
type serviceWorkload struct {
	seed   int64
	tal    *tally
	coord  *node
	peer   *node
	leases *leaseSink
	plain  *http.Client
	traced *http.Client
	tr     atomic.Pointer[tracer]
	// fresh is set while the nodes have served only their warm-up job.
	fresh bool
	// gen is the running coordinator's lease-sink generation.
	gen int
	// nextBlock numbers each client's blocks across phases, so no
	// block repeats an earlier one (which the result cache would hit).
	nextBlock [serviceClients]int
	// block0 holds each client's first block, the source of the exact
	// counts that two runs with one seed must agree on.
	block0 [serviceClients][]jobOutcome
}

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	gen     int
	class   jobClass
	spec    serve.Spec
	id      string
	status  int
	state   string
	cached  bool
	ms      float64
	execMS  float64
	queueMS float64
	bytes   int
	stream  []byte
}

func (w *serviceWorkload) setup(e *env) error {
	w.seed, w.tal = e.seed, e.tal
	w.leases = &leaseSink{}
	base := &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 2 * serviceClients, DisableCompression: true}
	w.plain = &http.Client{Transport: base}
	w.traced = &http.Client{Transport: &tracedTransport{base: base, w: w}}
	return w.start()
}

// start brings up a fresh peer and coordinator, waits for both to
// answer /readyz, and runs one warm-up job through the coordinator.
func (w *serviceWorkload) start() error {
	peer, err := startNode(serve.Config{Workers: 1}, w.peerWrap)
	if err != nil {
		return err
	}
	w.peer = peer
	w.gen = w.leases.nextGen()
	coord, err := startNode(serve.Config{Workers: 1, Peers: []string{peer.url}, LeaseTrials: leaseTrials, Sink: w.leases}, nil)
	if err != nil {
		return err
	}
	w.coord = coord
	for _, n := range []*node{peer, coord} {
		if err := waitReady(w.plain, n.url); err != nil {
			return err
		}
	}
	warm := plannedJob{class: classSim, spec: serve.Spec{Kind: serve.KindSim, Protocol: "asym", P: 6, Seed: specSeed(w.seed)}}
	warm.body, _ = json.Marshal(warm.spec)
	if out := w.doJob(warm, nil, 0); jobFailed(out.status, out.state) {
		return fmt.Errorf("warm-up job: status %d, state %q", out.status, out.state)
	}
	w.fresh = true
	return nil
}

func waitReady(c *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready (last error %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// peerWrap is the handler wrapper in front of the peer: traced, it
// records a dist.peer_request span per request the coordinator makes.
func (w *serviceWorkload) peerWrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.tr.Load()
		id := tr.begin("dist.peer_request", 0, 0)
		h.ServeHTTP(rw, r)
		tr.end(id)
	})
}

type spanKey struct{}

// spanRef names the client.job span a request belongs to.
type spanRef struct{ group, id int64 }

// tracedTransport is the client-side RoundTripper wrapper: it records
// serve.admit (POST to 202), serve.ttfb (results request to response
// headers) and serve.stream (results request to EOF).
type tracedTransport struct {
	base http.RoundTripper
	w    *serviceWorkload
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tr := t.w.tr.Load()
	ref, _ := r.Context().Value(spanKey{}).(spanRef)
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	hdr := time.Now()
	if err != nil || tr == nil {
		return resp, err
	}
	if r.Method == http.MethodPost {
		tr.record("serve.admit", ref.group, ref.id, start, hdr)
		return resp, nil
	}
	tr.record("serve.ttfb", ref.group, ref.id, start, hdr)
	resp.Body = &eofBody{ReadCloser: resp.Body, done: func() {
		tr.record("serve.stream", ref.group, ref.id, start, time.Now())
	}}
	return resp, nil
}

// eofBody calls done once, at EOF or Close, whichever comes first.
type eofBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *eofBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *eofBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// terminalRec is the job record that ends every result stream.
type terminalRec struct {
	Type        string `json:"type"`
	State       string `json:"state"`
	Cached      bool   `json:"cached"`
	WallNS      int64  `json:"wallNs"`
	QueueWaitNS int64  `json:"queueWaitNs"`
}

// doJob posts one job and reads its results to EOF; the latency is
// POST to EOF. A nil tracer runs it untraced.
func (w *serviceWorkload) doJob(pj plannedJob, tr *tracer, group int64) (out jobOutcome) {
	out = jobOutcome{gen: w.gen, class: pj.class, spec: pj.spec}
	client, ctx := w.plain, context.Background()
	root := tr.begin("client.job", group, 0)
	if tr != nil {
		client = w.traced
		ctx = context.WithValue(ctx, spanKey{}, spanRef{group, root})
	}
	t0 := time.Now()
	defer func() {
		out.ms = msOf(time.Since(t0))
		tr.end(root)
	}()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, w.coord.url+"/v1/jobs", bytes.NewReader(pj.body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		out.state = "post: " + err.Error()
		return out
	}
	out.status = resp.StatusCode
	var view struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&view)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if out.status != http.StatusAccepted || derr != nil {
		out.state = "refused"
		return out
	}
	out.id = view.ID
	req, _ = http.NewRequestWithContext(ctx, http.MethodGet, w.coord.url+"/v1/jobs/"+view.ID+"/results", nil)
	resp, err = client.Do(req)
	if err != nil {
		out.state = "results: " + err.Error()
		return out
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		out.state = "results: " + err.Error()
		return out
	}
	out.stream, out.bytes = body, len(body)
	last := body
	if i := bytes.LastIndexByte(bytes.TrimRight(body, "\n"), '\n'); i >= 0 {
		last = body[i+1:]
	}
	var term terminalRec
	if json.Unmarshal(last, &term) != nil || term.Type != "job" {
		out.state = "stream without a terminal job record"
		return out
	}
	out.state, out.cached = term.State, term.Cached
	out.execMS, out.queueMS = float64(term.WallNS)/1e6, float64(term.QueueWaitNS)/1e6
	return out
}

// runBlock runs one block for a client, checks every job, and returns
// the outcomes (streams kept only when keep is set).
func (w *serviceWorkload) runBlock(client, block int, tr *tracer, keep bool) ([]jobOutcome, float64) {
	plan := planBlock(w.seed, client, block)
	outs := make([]jobOutcome, len(plan))
	t0 := time.Now()
	for i, pj := range plan {
		o := w.doJob(pj, tr, nextGroup())
		w.checkJob(plan, outs, i, &o)
		outs[i] = o
	}
	secs := time.Since(t0).Seconds()
	if !keep {
		for i := range outs {
			outs[i].stream = nil
		}
	}
	return outs, secs
}

// checkJob applies the per-job output checks: accepted and done; a
// resubmission is a result-cache hit whose stream equals its
// original's, ignoring wall-clock fields; a sharded batch's summary records cover trials [0, T) once.
func (w *serviceWorkload) checkJob(plan []plannedJob, outs []jobOutcome, i int, o *jobOutcome) {
	w.tal.attempt(1)
	tag := fmt.Sprintf("%s job %s (%s)", classNames[o.class], o.id, plan[i].body)
	if jobFailed(o.status, o.state) {
		w.tal.fail(1, fmt.Sprintf("%s: status %d, state %q", tag, o.status, o.state))
		return
	}
	switch o.class {
	case classRepeat:
		orig := outs[plan[i].target].stream
		if !o.cached {
			w.tal.fail(1, tag+": resubmission was not served from the result cache")
		} else if !equalStreams(orig, o.stream) {
			w.tal.fail(1, tag+": stream differs from its original")
		}
	case classBatch:
		if err := checkCoverage(o.stream, plan[i].spec.Trials); err != nil {
			w.tal.fail(1, tag+": "+err.Error())
		}
	}
}

// equalStreams compares two result streams without their terminal job
// records (each job has its own) and without wall-clock fields.
func equalStreams(a, b []byte) bool {
	la, lb := journalLines(a), journalLines(b)
	return len(la) > 0 && len(la) == len(lb) && sameRecords(la[:len(la)-1], lb[:len(lb)-1])
}

// checkCoverage requires one summary record per trial in [0, trials)
// and a batch summary counting exactly trials.
func checkCoverage(stream []byte, trials int) error {
	seen := make([]int, trials)
	batchTrials := -1
	torn, err := obs.ReadJournal(bytes.NewReader(stream), func(rec obs.Rec) error {
		switch rec.Type {
		case "summary":
			t := rec.Summary.Trial
			if t < 0 || t >= trials {
				return fmt.Errorf("summary for trial %d outside [0, %d)", t, trials)
			}
			seen[t]++
		case "batch_summary":
			batchTrials = rec.Batch.Trials
		}
		return nil
	})
	if err != nil {
		return err
	}
	if torn {
		return fmt.Errorf("torn stream")
	}
	for t, n := range seen {
		if n != 1 {
			return fmt.Errorf("trial %d has %d summary records, want 1", t, n)
		}
	}
	if batchTrials != trials {
		return fmt.Errorf("batch_summary covers %d trials, want %d", batchTrials, trials)
	}
	return nil
}

// promCounters scrapes the unlabeled samples of a node's Prometheus
// exposition.
func (w *serviceWorkload) promCounters(n *node) map[string]float64 {
	out := map[string]float64{}
	resp, err := w.plain.Get(n.url + "/metrics?format=prometheus")
	if err != nil {
		w.tal.violation("scrape metrics: " + err.Error())
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

func (w *serviceWorkload) measure(e *env, d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase()
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	leaseMark := w.leases.len()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Every end-to-end rate and the median latency are taken per epoch,
	// and the 99th percentile per window of p99Window jobs; each is
	// reported as the median over epochs or windows, as campaign_s is
	// over executions, so a burst of host noise that spans a few of
	// them does not move it.
	var mix mixStats
	var rateI, rateJ, p50s, p99s, window []float64
	beyond := -1 // fewest samples beyond any window's p99
	tail := func() {
		p99, b := percentile(window, 0.99)
		p99s = append(p99s, p99)
		if beyond < 0 || b < beyond {
			beyond = b
		}
		window = window[:0]
	}
	counters := map[string]float64{}
	start := time.Now()
	for epoch := 0; epoch == 0 || time.Since(start) < d; epoch++ {
		if !w.fresh {
			w.close()
			if err := w.start(); err != nil {
				return nil, err
			}
		}
		w.fresh = false
		before := w.promCounters(w.coord)
		mark, doneMark := len(mix.all), mix.done
		t0 := time.Now()
		w.runEpoch(tr, &mix)
		secs := time.Since(t0).Seconds()
		after := w.promCounters(w.coord)
		for k, v := range after {
			counters[k] += v - before[k]
		}
		lat := append([]float64(nil), mix.all[mark:]...)
		p50, _ := percentile(lat, 0.5)
		p50s = append(p50s, p50)
		for _, ms := range mix.all[mark:] {
			if window = append(window, ms); len(window) == p99Window {
				tail()
			}
		}
		rateJ = append(rateJ, float64(mix.done-doneMark)/secs)
		rateI = append(rateI, (after["ppserved_interactions_total"]-before["ppserved_interactions_total"])/secs)
		w.verifyNodes()
	}
	if len(p99s) == 0 {
		tail() // a run too short for one full window
	}
	if beyond < minBeyond {
		fmt.Fprintf(os.Stderr, "perfbench: job_p99_ms has only %d samples beyond it; run longer\n", beyond)
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	ph.e2e["campaign_s"] = summarize(mix.blockS, 0.5, "s")
	ph.e2e["interactions_per_s"] = summarize(rateI, 0.5, "1/s")
	ph.e2e["jobs_per_s"] = summarize(rateJ, 0.5, "1/s")
	ph.e2e["job_p50_ms"] = summarize(p50s, 0.5, "ms")
	p99 := summarize(p99s, 0.5, "ms")
	p99.Beyond = beyond
	ph.e2e["job_p99_ms"] = p99
	ph.primary = ph.e2e["job_p50_ms"].Value
	if tr == nil {
		return ph, nil
	}

	ix := indexSpans(tr.snapshot())
	l := ph.layer
	admit := ix.durationsMS("serve.admit")
	l["serve.admit_ms.p50"] = summarize(admit, 0.5, "ms")
	l["serve.admit_ms.p99"] = summarize(admit, 0.99, "ms")
	l["serve.ttfb_ms.p50"] = summarize(ix.durationsMS("serve.ttfb"), 0.5, "ms")
	l["serve.stream_ms.p50"] = summarize(ix.durationsMS("serve.stream"), 0.5, "ms")
	l["serve.exec_ms.p50"] = summarize(mix.exec, 0.5, "ms")
	l["serve.queue_wait_ms.p50"] = summarize(mix.queue, 0.5, "ms")
	l["serve.cache_hit_frac"] = exact(counters["ppserved_cache_hits_total"]/counters["ppserved_jobs_submitted_total"], "frac")
	jobs := float64(len(mix.all))
	l["serve.repeat_share"] = exact(float64(mix.repeats)/jobs, "frac")
	l["serve.rejected"] = exact(counters["ppserved_jobs_rejected_total"], "count")
	l["serve.alloc_kb_per_job"] = exact(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/jobs, "KB")
	l["serve.gc_pause_ms"] = exact(float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
	for c, name := range classNames {
		l["serve."+name+"_job_ms.p50"] = summarize(mix.byClass[c], 0.5, "ms")
	}
	l["obs.stream_bytes_per_job"] = exact(float64(mix.streamBytes)/jobs, "B")

	type leaseKey struct {
		gen          int
		job          string
		lease, epoch int
	}
	issued := map[leaseKey]time.Time{}
	var leaseMS []float64
	completed, onPeer := 0, 0
	for _, ev := range w.leases.since(leaseMark) {
		r := ev.rec
		k := leaseKey{ev.gen, r.Job, r.Lease, r.Epoch}
		switch r.State {
		case "issued", "reissued":
			issued[k] = ev.at
		case "completed":
			completed++
			if r.Peer != "local" {
				onPeer++
			}
			if t, ok := issued[k]; ok {
				leaseMS = append(leaseMS, msOf(ev.at.Sub(t)))
			}
		}
	}
	l["dist.leases_reissued"] = exact(counters["ppserved_dist_leases_reissued_total"], "count")
	l["dist.leases_duplicate"] = exact(counters["ppserved_dist_leases_duplicate_total"], "count")
	l["dist.peer_lease_frac"] = exact(float64(onPeer)/float64(max(completed, 1)), "frac")
	l["dist.lease_ms.p50"] = summarize(leaseMS, 0.5, "ms")
	w.exactLayer(tr, l)
	return ph, nil
}

// mixStats accumulates a phase's job outcomes: latencies by class,
// server-side times of the jobs that ran, and counts.
type mixStats struct {
	mu          sync.Mutex
	all         []float64
	byClass     [len(classNames)][]float64
	exec, queue []float64
	blockS      []float64
	done        int
	repeats     int
	streamBytes int
}

func (m *mixStats) add(outs []jobOutcome, blockSecs float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blockS = append(m.blockS, blockSecs)
	for _, o := range outs {
		m.all = append(m.all, o.ms)
		m.byClass[o.class] = append(m.byClass[o.class], o.ms)
		m.streamBytes += o.bytes
		if o.class == classRepeat {
			m.repeats++
		}
		if o.state == "done" {
			m.done++
			if !o.cached {
				m.exec = append(m.exec, o.execMS)
				m.queue = append(m.queue, o.queueMS)
			}
		}
	}
}

// runEpoch runs epochBlocks blocks on each client, concurrently, into mix.
func (w *serviceWorkload) runEpoch(tr *tracer, mix *mixStats) {
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < epochBlocks; k++ {
				b := w.nextBlock[c]
				w.nextBlock[c]++
				outs, secs := w.runBlock(c, b, tr, b == 0)
				if b == 0 {
					w.block0[c] = outs
				}
				mix.add(outs, secs)
			}
		}(c)
	}
	wg.Wait()
}

// exactLayer folds the first block of every client into the exact
// counts two runs with one seed must agree on, and times the isolated
// admission and trial-construction calls on those blocks' specs.
func (w *serviceWorkload) exactLayer(tr *tracer, l map[string]stat) {
	var st campaignStats
	var spans, traced, issued int
	var prepUS, buildUS []float64
	type jobKey struct {
		gen int
		id  string
	}
	ids := map[jobKey]bool{}
	for c := 0; c < serviceClients; c++ {
		for _, o := range w.block0[c] {
			ids[jobKey{o.gen, o.id}] = true
			if o.stream == nil {
				continue
			}
			n := 0
			_, _ = obs.ReadJournal(bytes.NewReader(o.stream), func(rec obs.Rec) error {
				st.records++
				switch rec.Type {
				case "span":
					n++
				case "summary":
					if o.cached || o.spec.Kind != serve.KindSim {
						break
					}
					st.trials++
					st.interactions += int64(rec.Summary.Steps)
					st.nonNull += int64(rec.Summary.NonNull)
					if rec.Summary.Converged {
						st.converged++
					}
				case "batch_summary":
					st.trials += rec.Batch.Trials
					st.converged += rec.Batch.Converged
					st.retried += rec.Batch.Retried
					st.aborted += rec.Batch.Aborted
					st.interactions += rec.Batch.TotalSteps
					st.nonNull += rec.Batch.TotalNonNull
				}
				return nil
			})
			st.journalBytes += int64(len(o.stream))
			if o.class == classTraced {
				traced++
				spans += n
			}
		}
	}
	for _, ev := range w.leases.since(0) {
		if ids[jobKey{ev.gen, ev.rec.Job}] && (ev.rec.State == "issued" || ev.rec.State == "reissued") {
			issued++
		}
	}
	for round := 0; round < isolatedRounds; round++ {
		for c := 0; c < serviceClients; c++ {
			for _, o := range w.block0[c] {
				g := nextGroup()
				t0 := time.Now()
				p, err := serve.Prepare(o.spec)
				t1 := time.Now()
				tr.record("serve.prepare", g, 0, t0, t1)
				if err != nil {
					w.tal.violation(fmt.Sprintf("prepare %+v: %v", o.spec, err))
					continue
				}
				prepUS = append(prepUS, usOf(t1.Sub(t0)))
				buildUS = append(buildUS, timeTrialBuilds(tr, g, p, nil)...)
			}
		}
	}
	st.simLayer(l)
	l["obs.records"] = exact(float64(st.records), "count")
	l["obs.journal_bytes"] = exact(float64(st.journalBytes), "B")
	l["serve.spans_per_traced_job"] = exact(float64(spans)/float64(max(traced, 1)), "count")
	l["dist.leases_issued"] = exact(float64(issued), "count")
	l["serve.prepare_us"] = summarize(prepUS, 0.5, "us")
	l["sim.trial_build_us"] = summarize(buildUS, 0.5, "us")
}

// verify has nothing left to do: measure checks every epoch's nodes
// before replacing them.
func (w *serviceWorkload) verify(*env) {}

// verifyNodes reads every job view back from both nodes: every job
// ends done, and every converged sim job ends in a valid naming.
func (w *serviceWorkload) verifyNodes() {
	for _, n := range []*node{w.coord, w.peer} {
		resp, err := w.plain.Get(n.url + "/v1/jobs")
		if err != nil {
			w.tal.violation("list jobs: " + err.Error())
			continue
		}
		var list struct {
			Jobs []struct {
				ID      string `json:"id"`
				Kind    string `json:"kind"`
				State   string `json:"state"`
				Summary *struct {
					Converged   bool `json:"converged"`
					ValidNaming bool `json:"validNaming"`
				} `json:"summary"`
			} `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			w.tal.violation("list jobs: " + err.Error())
			continue
		}
		for _, j := range list.Jobs {
			switch {
			case j.State != "done":
				w.tal.violation(fmt.Sprintf("%s job %s ended %s", n.url, j.ID, j.State))
			case j.Kind == serve.KindSim && j.Summary != nil && j.Summary.Converged && !j.Summary.ValidNaming:
				w.tal.violation(fmt.Sprintf("%s sim job %s converged without a valid naming", n.url, j.ID))
			}
		}
	}
}

func (w *serviceWorkload) close() {
	if w.coord != nil {
		w.coord.stop()
	}
	if w.peer != nil {
		w.peer.stop()
	}
	w.coord, w.peer = nil, nil
	if w.plain != nil {
		w.plain.CloseIdleConnections()
	}
}
