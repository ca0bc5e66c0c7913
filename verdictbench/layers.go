package main

import (
	"fmt"
	"time"

	"github.com/ioa-lab/boosting"
	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/system"
)

// replay times the system and store layers over a built graph's own vertex
// states, one span per layer: every applicable task applied, every
// successor fingerprinted, every vertex fingerprint parsed back, looked up
// in the store and its adjacency streamed. It returns the replayed cost of
// one transition of the build: Apply, AppendFingerprint and Lookup.
func replay(tr *tracer, sys *system.System, g *boosting.Graph, class string, op int) time.Duration {
	n := g.Size()
	states := make([]system.State, n)
	fps := make([]string, n)
	for i := range states {
		states[i], _ = g.State(boosting.StateID(i))
		fps[i] = g.Fingerprint(boosting.StateID(i))
	}

	t0 := time.Now()
	var succs []system.State
	for _, st := range states {
		for _, task := range sys.Tasks() {
			if !sys.Applicable(st, task) {
				continue
			}
			if next, _, err := sys.Apply(st, task); err == nil {
				succs = append(succs, next)
			}
		}
	}
	applyEnd := time.Now()
	tr.add("system.apply", class, -1, op, t0, applyEnd, int64(len(succs)), 0)

	var buf []byte
	var bytes int64
	for _, st := range succs {
		buf = sys.AppendFingerprint(buf[:0], st)
		bytes += int64(len(buf))
	}
	fpEnd := time.Now()
	tr.add("system.fingerprint", class, -1, op, applyEnd, fpEnd, int64(len(succs)), bytes)

	for _, fp := range fps {
		_, _ = sys.ParseFingerprint(fp)
	}
	decodeEnd := time.Now()
	tr.add("system.decode", class, -1, op, fpEnd, decodeEnd, int64(n), 0)

	for _, fp := range fps {
		g.Lookup(fp)
	}
	lookupEnd := time.Now()
	tr.add("explore.lookup", class, -1, op, decodeEnd, lookupEnd, int64(n), 0)

	for i := 0; i < n; i++ {
		for range g.EdgesFrom(boosting.StateID(i)) {
		}
	}
	tr.add("explore.edges_from", class, -1, op, lookupEnd, time.Now(), int64(n), 0)

	if len(succs) == 0 || n == 0 {
		return 0
	}
	// The build looks up every successor once, so the per-vertex lookup
	// cost is charged per transition.
	return fpEnd.Sub(t0)/time.Duration(len(succs)) + lookupEnd.Sub(decodeEnd)/time.Duration(n)
}

// classWeights counts a traced phase's operations per class.
func classWeights(ops []tracedOp) map[string]float64 {
	w := map[string]float64{}
	for _, o := range ops {
		w[o.cand.key()]++
	}
	return w
}

// weightedPerUnit pools per-class spans of one layer, weighting each class
// by how many operations of the traced phase it had: nanoseconds per unit.
func weightedPerUnit(ss []span, w map[string]float64) float64 {
	var num, den float64
	for _, s := range ss {
		num += w[s.Class] * float64(s.dur())
		den += w[s.Class] * float64(s.N)
	}
	return ratio(num, den)
}

// weightedPerOp is the mean per operation of a per-class quantity.
func weightedPerOp(ss []span, w map[string]float64, v func(span) float64) float64 {
	var num, total float64
	for _, s := range ss {
		num += w[s.Class] * v(s)
	}
	for _, x := range w {
		total += x
	}
	return ratio(num, total)
}

// layerMetrics derives the replayed system and store layer metrics.
func layerMetrics(tr *tracer, w map[string]float64, m map[string]metric) {
	apply := tr.named("system.apply")
	fp := tr.named("system.fingerprint")
	m["system.apply_ns"] = metric{weightedPerUnit(apply, w), "ns"}
	m["system.transitions"] = metric{weightedPerOp(apply, w, func(s span) float64 { return float64(s.N) }), "count"}
	m["system.fingerprint_ns"] = metric{weightedPerUnit(fp, w), "ns"}
	var bytes, fps float64
	for _, s := range fp {
		bytes += w[s.Class] * float64(s.Bytes)
		fps += w[s.Class] * float64(s.N)
	}
	m["system.fingerprint_bytes"] = metric{ratio(bytes, fps), "B"}
	m["system.decode_ns"] = metric{weightedPerUnit(tr.named("system.decode"), w), "ns"}
	m["explore.lookup_ns"] = metric{weightedPerUnit(tr.named("explore.lookup"), w), "ns"}
	m["explore.edges_from_ns"] = metric{weightedPerUnit(tr.named("explore.edges_from"), w), "ns"}
	m["explore.hook_ms"] = metric{weightedPerOp(tr.named("explore.hook"), w, func(s span) float64 { return float64(s.dur()) / 1e6 }), "ms"}
}

// exploreMetrics derives the build and fixpoint metrics from the traced
// operations' explore.build and explore.fixpoint spans.
func exploreMetrics(tr *tracer, m map[string]metric, states, edges float64) {
	build := tr.named("explore.build")
	m["explore.build_ms"] = metric{meanMs(build), "ms"}
	m["explore.fixpoint_ms"] = metric{meanMs(tr.named("explore.fixpoint")), "ms"}
	m["explore.states"] = metric{states, "count"}
	m["explore.edges"] = metric{edges, "count"}
	m["explore.states_per_s"] = metric{ratio(float64(sumN(build)), sumDur(build).Seconds()), "1/s"}
}

// layerUnits names every per-layer metric with its unit. A traced run
// reports each of them; a layer a workload never reaches reads 0.
var layerUnits = map[string]string{
	"system.apply_ns": "ns", "system.transitions": "count", "system.fingerprint_ns": "ns",
	"system.fingerprint_bytes": "B", "system.decode_ns": "ns",
	"explore.build_ms": "ms", "explore.states": "count", "explore.edges": "count",
	"explore.states_per_s": "1/s", "explore.fixpoint_ms": "ms", "explore.edges_from_ns": "ns",
	"explore.lookup_ns": "ns", "explore.hook_ms": "ms", "explore.scenarios_ms": "ms",
	"explore.commit_ms": "ms", "explore.spill_bytes_per_state": "B", "explore.spill_reads": "count",
	"explore.reopen_ms": "ms", "explore.recheck_ms": "ms", "explore.recheck_explored": "count",
	"explore.recheck_to_build": "ratio",
	"symmetry.canonical_ns":    "ns", "symmetry.calls": "count", "symmetry.reduction": "ratio",
	"server.ack_ms": "ms", "server.first_event_ms": "ms", "server.miss_p50_ms": "ms",
	"server.delta_p50_ms": "ms", "server.hit_p50_ms": "ms", "server.result_bytes": "B",
	"server.explorations": "count", "server.hit_ratio": "ratio",
	"runtime.gc_cpu_s": "s", "runtime.gc_cycles": "count", "runtime.alloc_bytes_per_state": "B",
	"runtime.live_heap_mb": "MB",
	"trace.overhead_s":     "s", "trace.unattributed_ms": "ms", "trace.unattributed_share": "ratio",
}

// tracedOp is one operation of a traced phase.
type tracedOp struct {
	cand     candidate
	dur      time.Duration
	gc       time.Duration
	measured time.Duration // layer time measured directly: fixpoint, hook, commit, ack
	states   int
	edges    int
	sym      time.Duration
}

// unattributed is the per-operation time the layer rows do not account
// for: the operation's duration minus the replayed per-transition cost of
// Apply, AppendFingerprint and Lookup times its transitions, the layer
// time measured directly (fixpoint; hook, commit and ack where the
// workload has them), its canonicalization time and the GC that stalled
// it.
func unattributed(ops []tracedOp, perTransition map[string]time.Duration, m map[string]metric) {
	var un, share []float64
	for _, o := range ops {
		rest := o.dur - time.Duration(o.edges)*perTransition[o.cand.key()] - o.measured - o.gc - o.sym
		un = append(un, float64(rest)/1e6)
		share = append(share, ratio(float64(rest), float64(o.dur)))
	}
	if len(un) == 0 {
		m["trace.unattributed_ms"] = metric{0, "ms"}
		m["trace.unattributed_share"] = metric{0, "ratio"}
		return
	}
	m["trace.unattributed_ms"] = metric{median(un), "ms"}
	m["trace.unattributed_share"] = metric{median(share), "ratio"}
}

// exploreMetricsWeighted is exploreMetrics for build spans recorded once
// per candidate by a probe, weighted by the candidates' operation counts.
func exploreMetricsWeighted(tr *tracer, w map[string]float64, m map[string]metric, states, edges float64) {
	build := tr.named("explore.build")
	ms := func(s span) float64 { return float64(s.dur()) / 1e6 }
	m["explore.build_ms"] = metric{weightedPerOp(build, w, ms), "ms"}
	m["explore.fixpoint_ms"] = metric{weightedPerOp(tr.named("explore.fixpoint"), w, ms), "ms"}
	m["explore.states"] = metric{states, "count"}
	m["explore.edges"] = metric{edges, "count"}
	var n, secs float64
	for _, s := range build {
		n += w[s.Class] * float64(s.N)
		secs += w[s.Class] * s.dur().Seconds()
	}
	m["explore.states_per_s"] = metric{ratio(n, secs), "1/s"}
}

// probeResult is what probeClassify measured for one candidate.
type probeResult struct {
	perTransition time.Duration
	classify      time.Duration
	fixpoint      time.Duration
	hook          time.Duration
	states        int
}

// probe selects what probeClassify does besides the sweep and the hook
// search.
type probe struct {
	symmetric  bool // reduce by the family's canonicalizer
	buildSpans bool // record the sweep's explore.build and explore.fixpoint spans
	replay     bool // replay the layers over the graph
}

// probeClassify runs one serial Lemma 4 sweep of the candidate through
// explore and the hook search from its first bivalent root, recording the
// hook's span, plus what p selects.
func probeClassify(tr *tracer, c candidate, p probe) (probeResult, error) {
	var r probeResult
	sys, err := c.system()
	if err != nil {
		return r, err
	}
	var last time.Time
	opt := explore.BuildOptions{Workers: 1, Progress: func(explore.Progress) { last = time.Now() }}
	if p.symmetric {
		canon, err := c.canonicalizer(sys)
		if err != nil {
			return r, err
		}
		if canon != nil {
			opt.Symmetry = canon
		}
	}
	op := tr.newOp()
	t0 := time.Now()
	res, err := explore.ClassifyInits(sys, opt)
	t1 := time.Now()
	if err != nil {
		return r, err
	}
	defer res.Close()
	r.classify, r.fixpoint, r.states = t1.Sub(t0), t1.Sub(last), res.Graph.Size()
	if p.buildSpans {
		tr.add("explore.build", c.key(), -1, op, t0, last, int64(r.states), 0)
		tr.add("explore.fixpoint", c.key(), -1, op, last, t1, 0, 0)
	}
	if res.BivalentIndex >= 0 {
		h0 := time.Now()
		_, err := explore.FindHookCtx(nil, res.Graph, res.Roots[res.BivalentIndex], 1)
		h1 := time.Now()
		if err != nil {
			return r, fmt.Errorf("%s hook: %w", c.key(), err)
		}
		r.hook = h1.Sub(h0)
		tr.add("explore.hook", c.key(), -1, op, h0, h1, 1, 0)
	}
	if p.replay {
		r.perTransition = replay(tr, sys, res.Graph, c.key(), op)
	}
	return r, nil
}
