package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/ioa-lab/boosting"
	"github.com/ioa-lab/boosting/internal/server"
)

// boostd-mixed: two closed-loop clients against an in-process server
// (server.New behind httptest, a pool of two serial workers, a graph root
// so the durable tier is on). Each client's cycle is a cold forward n=4
// classify, its benign-policy variant (served by the delta tier), two cold
// symmetric forward n=4 claim-1 refutations and one exact repeat from a hot
// set primed during set-up. Sorted by latency a cycle's five jobs are the
// hit (ranks 0–20%), the classify and its delta (20–60%) and the two
// refutations (60–100%): the p50 falls inside the classify pair's mode —
// inside the cold classify's own mode once the delta tier becomes faster
// than a rebuild — and the p90 inside the refutations' mode.
var boostdWorkload = workload{
	name:         "boostd-mixed",
	opsPerCycle:  boostdClients * len(cycleSteps),
	nominalCycle: 485 * time.Millisecond,
	setup:        setupBoostd,
}

const boostdClients = 2

// Operation classes of a client cycle, in order.
const (
	stepClassify = "miss-classify"
	stepDelta    = "delta-classify"
	stepRefute   = "miss-refute"
	stepHit      = "hit"
)

var cycleSteps = []string{stepClassify, stepDelta, stepRefute, stepRefute, stepHit}

// Salts are per-request state budgets (MaxStates, part of the server's
// cache key): every cold request gets one no other request has used, so
// its cache class is fixed by the stream. Client k draws from
// [saltBase+k·saltSpan, saltBase+(k+1)·saltSpan); the hot sets draw from
// above every client's range.
const (
	saltBase = 100_000
	saltSpan = 40_000
	hotBase  = saltBase + boostdClients*saltSpan
)

// streamReq is one request of a client's stream with its predicted cache
// class.
type streamReq struct {
	Step    string
	Req     server.Request
	Predict server.CacheState
}

// saltsPerCycle is how many fresh salts a client cycle uses: one for the
// classify pair, one per refutation.
const saltsPerCycle = 3

// salt is the state budget of client k's j-th cold request in cycle c.
// Cycle -1 is the set-up warm-up. A client runs fewer than
// saltSpan/saltsPerCycle cycles, so its salts never repeat.
func salt(seed int64, k, c, j int) int {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(k)))
	off := rng.IntN(saltSpan)
	return saltBase + k*saltSpan + (off+saltsPerCycle*(c+1)+j)%saltSpan
}

func classifyReq(ms int, benign bool) server.Request {
	r := server.Request{Protocol: "forward", N: 4, F: 0, Analysis: server.AnalysisClassify}
	r.Options.MaxStates = ms
	if benign {
		r.Options.Policy = "benign"
	}
	return r
}

func refuteReq(ms int) server.Request {
	r := server.Request{Protocol: "forward", N: 4, F: 0, Analysis: server.AnalysisRefute, Claimed: 1}
	r.Options.MaxStates = ms
	r.Options.Symmetry = true
	return r
}

// hotSet is client k's primed set: a classify and a refutation.
func hotSet(k int) []server.Request {
	return []server.Request{classifyReq(hotBase+2*k, false), refuteReq(hotBase + 2*k + 1)}
}

// clientCycle is client k's requests in cycle c.
func clientCycle(seed int64, k, c int) []streamReq {
	ms := salt(seed, k, c, 0)
	hot := hotSet(k)
	pick := rand.New(rand.NewPCG(uint64(seed)^0x5bd1e995, uint64(k)<<32|uint64(uint32(c)))).IntN(len(hot))
	return []streamReq{
		{stepClassify, classifyReq(ms, false), server.CacheMiss},
		{stepDelta, classifyReq(ms, true), server.CacheDelta},
		{stepRefute, refuteReq(salt(seed, k, c, 1)), server.CacheMiss},
		{stepRefute, refuteReq(salt(seed, k, c, 2)), server.CacheMiss},
		{stepHit, hot[pick], server.CacheHit},
	}
}

// jobRecord is one finished job as the check needs it.
type jobRecord struct {
	step      string
	req       server.Request
	predicted server.CacheState
	acked     server.CacheState
	terminal  string
	result    server.Result
}

type boostdSession struct {
	seed   int64
	work   string // the run's scratch directory
	root   string // the server's graph root, under work
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client

	mu      sync.Mutex
	records []jobRecord
	traced  []tracedOp
	// tallies predicted from the stream: what /v1/stats must report.
	hits, misses, deltas int64
	// statsBefore is /v1/stats as the traced phase began.
	statsBefore server.StatsResponse
	statsErr    error
	haveBefore  bool
}

func setupBoostd(cfg config, attempt int) (session, error) {
	root := filepath.Join(cfg.work, fmt.Sprintf("graphs-%d", attempt))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Pool: 2, CacheSize: 4096, GraphRoot: root})
	s := &boostdSession{
		seed: cfg.seed,
		work: cfg.work,
		root: root,
		srv:  srv,
		ts:   httptest.NewServer(srv),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: boostdClients,
			MaxConnsPerHost:     boostdClients,
		}},
	}
	// Prime the hot sets, then warm up every distinct operation with one
	// client cycle each (cycle -1).
	for k := 0; k < boostdClients; k++ {
		for _, r := range hotSet(k) {
			if o := s.do(streamReq{"prime", r, server.CacheMiss}, nil); o.err != nil {
				s.close()
				return nil, fmt.Errorf("prime: %w", o.err)
			}
		}
	}
	if out := s.cycle(-1, nil); failedAny(out) != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", failedAny(out))
	}
	return s, nil
}

func failedAny(out []outcome) error {
	for _, o := range out {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

func (s *boostdSession) cycle(c int, tr *tracer) []outcome {
	if tr != nil && !s.haveBefore {
		// The traced phase's server counters are read against this.
		s.statsBefore, s.statsErr = s.stats()
		s.haveBefore = true
	}
	out := make([][]outcome, boostdClients)
	var wg sync.WaitGroup
	for k := 0; k < boostdClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for _, r := range clientCycle(s.seed, k, c) {
				out[k] = append(out[k], s.do(r, tr))
			}
		}(k)
	}
	wg.Wait()
	return slices.Concat(out...)
}

// do submits one request and follows its event stream to the terminal
// event.
func (s *boostdSession) do(r streamReq, tr *tracer) outcome {
	start := time.Now()
	o := outcome{class: r.Step, start: start}
	body, err := json.Marshal(r.Req)
	if err != nil {
		o.err, o.end = err, time.Now()
		return o
	}
	resp, err := s.client.Post(s.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err, o.end = err, time.Now()
		return o
	}
	var ack server.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&ack)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	acked := time.Now()
	if err == nil && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("status %s", resp.Status)
	}
	if err != nil {
		o.err, o.end = fmt.Errorf("submit: %w", err), acked
		return o
	}
	resp, err = s.client.Get(s.ts.URL + "/v1/jobs/" + ack.ID + "/events")
	if err == nil && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		err = fmt.Errorf("events: status %s", resp.Status)
	}
	if err != nil {
		o.err, o.end = err, time.Now()
		return o
	}
	ev, err := readEvents(resp.Body)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	o.end = time.Now()
	if err != nil {
		o.err = fmt.Errorf("events: %w", err)
		return o
	}
	rec := jobRecord{step: r.Step, req: r.Req, predicted: r.Predict, acked: ack.Cached, terminal: ev.terminal}
	if ev.terminal == "done" {
		if err := json.Unmarshal(ev.data, &rec.result); err != nil {
			o.err = fmt.Errorf("result: %w", err)
			return o
		}
	} else {
		o.err = fmt.Errorf("job %s ended %s: %s", ack.ID, ev.terminal, ev.data)
	}
	switch {
	case ack.Cached == server.CacheHit:
	case rec.result.Explored != nil:
		o.explored = *rec.result.Explored
	default:
		o.explored = rec.result.States
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records = append(s.records, rec)
	switch r.Predict {
	case server.CacheHit:
		s.hits++
	case server.CacheDelta:
		s.misses++
		s.deltas++
	default:
		s.misses++
	}
	if tr != nil {
		id := tr.newOp()
		root := tr.add("op", r.Step, -1, id, start, o.end, int64(rec.result.States), int64(len(ev.data)))
		tr.add("server.ack", r.Step, root, id, start, acked, 0, 0)
		tr.add("server.first_event", r.Step, root, id, start, ev.first, 0, 0)
		if r.Step == stepClassify || r.Step == stepDelta {
			// Client-side view of the job's phases: from the ack to the
			// last progress event, and from there to the terminal event.
			last := ev.lastProgress
			if last.IsZero() {
				last = acked
			}
			tr.add("explore.build", r.Step, root, id, acked, last, int64(rec.result.States), 0)
			tr.add("explore.fixpoint", r.Step, root, id, last, ev.end, 0, 0)
		}
		if r.Step == stepClassify {
			// Cold builds are what the replayed layer costs model; see
			// unattributed.
			s.traced = append(s.traced, tracedOp{
				cand: candidate{Family: "forward", N: 4}, dur: o.end.Sub(start),
				measured: ev.end.Sub(ev.lastProgress) + acked.Sub(start), states: rec.result.States, edges: rec.result.Edges,
			})
		}
	}
	return o
}

// events is what one event stream delivered.
type events struct {
	first        time.Time
	lastProgress time.Time
	end          time.Time
	terminal     string
	data         []byte
}

// readEvents reads a job's Server-Sent-Event stream up to its terminal
// event.
func readEvents(r io.Reader) (events, error) {
	var ev events
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	name := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
			if ev.first.IsZero() {
				ev.first = time.Now()
			}
		case strings.HasPrefix(line, "data: "):
			if name == "progress" {
				ev.lastProgress = time.Now()
				continue
			}
			ev.terminal, ev.data, ev.end = name, []byte(strings.TrimPrefix(line, "data: ")), time.Now()
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return ev, err
	}
	return ev, fmt.Errorf("stream ended without a terminal event")
}

func (s *boostdSession) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := s.client.Get(s.ts.URL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func (s *boostdSession) check(refs referenceCache) error {
	adversarial, err := refs.get(candidate{Family: "forward", N: 4})
	if err != nil {
		return err
	}
	benign, err := refs.get(candidate{Family: "forward", N: 4, Benign: true})
	if err != nil {
		return err
	}
	for i, r := range s.records {
		if r.terminal != "done" {
			return fmt.Errorf("job %d (%s) ended %s", i, r.step, r.terminal)
		}
		if r.acked != r.predicted {
			return fmt.Errorf("job %d (%s): acknowledged %q, the stream predicts %q", i, r.step, r.acked, r.predicted)
		}
		res := r.result
		ref := adversarial
		if r.req.Options.Policy == "benign" {
			ref = benign
		}
		switch r.req.Analysis {
		case server.AnalysisClassify:
			if res.States != ref.States || res.Edges != ref.Edges || res.BivalentIndex == nil ||
				*res.BivalentIndex != ref.BivalentIndex || !slices.Equal(res.Valences, ref.Valences) {
				return fmt.Errorf("job %d (%s, policy %q): %d states, %d edges, valences %v; reference %d, %d, %v",
					i, r.step, r.req.Options.Policy, res.States, res.Edges, res.Valences, ref.States, ref.Edges, ref.Valences)
			}
		case server.AnalysisRefute:
			if res.Violated == nil || !*res.Violated {
				return fmt.Errorf("job %d (%s): forward n=4 f=0 claim 1 not refuted (Theorem 2)", i, r.step)
			}
			for _, c := range res.Certificates {
				if len(c.Failed) > r.req.Claimed {
					return fmt.Errorf("job %d (%s): certificate fails %d processes, more than claimed", i, r.step, len(c.Failed))
				}
				if c.Kind == boosting.KindAgreement.String() && distinctValues(c.Decisions) < 2 {
					return fmt.Errorf("job %d (%s): agreement certificate decides one value", i, r.step)
				}
			}
			if res.Valences != nil && !slices.Equal(res.Valences, ref.Valences) {
				return fmt.Errorf("job %d (%s): quotient root valences %v, unreduced reference %v", i, r.step, res.Valences, ref.Valences)
			}
		}
	}
	st, err := s.stats()
	if err != nil {
		return err
	}
	if st.Cache.Hits != s.hits || st.Cache.Misses != s.misses || st.Cache.DeltaHits != s.deltas || st.Explorations != s.misses {
		return fmt.Errorf("/v1/stats hits=%d misses=%d deltaHits=%d explorations=%d; the stream predicts %d, %d, %d, %d",
			st.Cache.Hits, st.Cache.Misses, st.Cache.DeltaHits, st.Explorations, s.hits, s.misses, s.deltas, s.misses)
	}
	return nil
}

func distinctValues(m map[string]string) int {
	seen := map[string]bool{}
	for _, v := range m {
		seen[v] = true
	}
	return len(seen)
}

func (s *boostdSession) close() {
	s.ts.Close()
	_ = s.srv.Shutdown(context.Background())
	s.client.CloseIdleConnections()
	_ = os.RemoveAll(s.root)
}

// probe reports the client-side server spans of the traced phase and runs
// the durable-tier and layer probes on the workload's candidate: a cold
// durable build, the same build without commit, a reopen and benign
// recheck, the layer replay over the spill-backed graph, and one traced
// symmetric refutation.
func (s *boostdSession) probe(tr *tracer, refs referenceCache, m map[string]metric) error {
	if s.statsErr != nil {
		return s.statsErr
	}
	after, err := s.stats()
	if err != nil {
		return err
	}
	jobs := map[string][]float64{}
	var resultBytes []float64
	for _, sp := range tr.named("op") {
		if slices.Contains(cycleSteps, sp.Class) {
			jobs[sp.Class] = append(jobs[sp.Class], float64(sp.dur())/1e6)
			resultBytes = append(resultBytes, float64(sp.Bytes))
		}
	}
	p50 := func(steps ...string) float64 {
		var xs []float64
		for _, st := range steps {
			xs = append(xs, jobs[st]...)
		}
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	m["server.ack_ms"] = metric{meanMs(tr.named("server.ack")), "ms"}
	m["server.first_event_ms"] = metric{meanMs(tr.named("server.first_event")), "ms"}
	m["server.miss_p50_ms"] = metric{p50(stepClassify, stepRefute), "ms"}
	m["server.delta_p50_ms"] = metric{p50(stepDelta), "ms"}
	m["server.hit_p50_ms"] = metric{p50(stepHit), "ms"}
	m["server.result_bytes"] = metric{mean(resultBytes), "B"}
	subs := float64(after.Cache.Hits + after.Cache.Misses - s.statsBefore.Cache.Hits - s.statsBefore.Cache.Misses)
	m["server.explorations"] = metric{float64(after.Explorations - s.statsBefore.Explorations), "count"}
	m["server.hit_ratio"] = metric{ratio(float64(after.Cache.Hits-s.statsBefore.Cache.Hits), subs), "ratio"}

	cand := candidate{Family: "forward", N: 4}
	dir := filepath.Join(s.work, "probe-durable")
	var last time.Time
	progress := boosting.WithProgress(func(boosting.Progress) { last = time.Now() })
	durable, err := boosting.New(cand.Family, cand.N, cand.F, cand.facadeOptions(progress, boosting.WithGraphDir(dir))...)
	if err != nil {
		return err
	}
	op := tr.newOp()
	t0 := time.Now()
	res, err := durable.ClassifyInits()
	t1 := time.Now()
	if err != nil {
		return err
	}
	build := t1.Sub(t0)
	postDurable := t1.Sub(last)
	st, _ := boosting.GraphSpillStats(res.Graph)
	if err := res.Close(); err != nil {
		return err
	}
	tr.add("explore.durable_build", cand.key(), -1, op, t0, t1, int64(st.States), 0)

	ephemeral, err := boosting.New(cand.Family, cand.N, cand.F, cand.facadeOptions(progress, boosting.WithSpillDir(s.work))...)
	if err != nil {
		return err
	}
	eres, err := ephemeral.ClassifyInits()
	e1 := time.Now()
	if err != nil {
		return err
	}
	postEphemeral := e1.Sub(last)
	if err := eres.Close(); err != nil {
		return err
	}
	commit := postDurable - postEphemeral
	tr.add("explore.commit", cand.key(), -1, op, t1.Add(-commit), t1, 0, 0)

	benignCand := candidate{Family: "forward", N: 4, Benign: true}
	benign, err := boosting.New(benignCand.Family, benignCand.N, benignCand.F, benignCand.facadeOptions()...)
	if err != nil {
		return err
	}
	r0 := time.Now()
	prev, err := benign.OpenGraph(dir)
	r1 := time.Now()
	if err != nil {
		return err
	}
	rc, err := benign.Recheck(prev)
	r2 := time.Now()
	if err != nil {
		_ = boosting.CloseGraph(prev)
		return err
	}
	explored := rc.Dirty + rc.Fresh
	if err := rc.Close(); err != nil {
		return err
	}
	tr.add("explore.reopen", benignCand.key(), -1, op, r0, r1, 0, 0)
	tr.add("explore.recheck", benignCand.key(), -1, op, r1, r2, int64(explored), 0)
	m["explore.commit_ms"] = metric{float64(commit) / 1e6, "ms"}
	m["explore.spill_bytes_per_state"] = metric{ratio(float64(st.SpillBytes), float64(st.States)), "B"}
	m["explore.spill_reads"] = metric{float64(st.Reads), "count"}
	m["explore.reopen_ms"] = metric{float64(r1.Sub(r0)) / 1e6, "ms"}
	m["explore.recheck_ms"] = metric{float64(r2.Sub(r1)) / 1e6, "ms"}
	m["explore.recheck_explored"] = metric{float64(explored), "count"}
	m["explore.recheck_to_build"] = metric{ratio(float64(r2.Sub(r1)), float64(build)), "ratio"}

	// Layer replay over the committed spill-backed graph.
	g, err := durable.OpenGraph(dir)
	if err != nil {
		return err
	}
	perTransition := replay(tr, durable.System(), g, cand.key(), op)
	if err := boosting.CloseGraph(g); err != nil {
		return err
	}
	costs := map[string]time.Duration{cand.key(): perTransition}
	weights := map[string]float64{cand.key(): 1}
	layerMetrics(tr, weights, m)

	// One traced symmetric refutation of the jobs' candidate: the
	// canonicalizer's cost and what remains after classify and hook.
	refCand := candidate{Family: "forward", N: 4, Claim: 1}
	rs := &refuteSession{}
	if o := rs.op(refCand, tr); o.err != nil {
		return o.err
	}
	p, err := probeClassify(tr, refCand, probe{symmetric: true})
	if err != nil {
		return err
	}
	m["explore.hook_ms"] = metric{float64(p.hook) / 1e6, "ms"}
	m["explore.scenarios_ms"] = metric{float64(rs.traced[0].dur-p.classify-p.hook) / 1e6, "ms"}
	sym := tr.named("symmetry.canonical")
	m["symmetry.canonical_ns"] = metric{perUnitNs(sym), "ns"}
	m["symmetry.calls"] = metric{float64(sumN(sym)), "count"}
	ref, err := refs.get(cand)
	if err != nil {
		return err
	}
	m["symmetry.reduction"] = metric{ratio(float64(ref.States), float64(p.states)), "ratio"}

	var states, edges float64
	for _, o := range s.traced {
		states += float64(o.states)
		edges += float64(o.edges)
	}
	n := float64(len(s.traced))
	exploreMetrics(tr, m, states/n, edges/n)
	unattributed(s.traced, costs, m)
	return nil
}
