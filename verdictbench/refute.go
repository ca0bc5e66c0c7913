package main

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"github.com/ioa-lab/boosting"
	"github.com/ioa-lab/boosting/internal/explore"
	"github.com/ioa-lab/boosting/internal/system"
)

// refuteRotation is refute-theorems' weighted rotation of the paper's
// refutations. Sorted by latency the cycle's 12 operations are floodset-p
// (ranks 0–17%), registervote (17–33%), forward n=4 f=1 (33–67%), setboost
// (67–75%), fdboost (75–83%) and forward n=5 (83–100%): the p50 falls
// inside the forward n=4 f=1 mode and the p90 inside the forward n=5 mode.
var refuteRotation = []candidate{
	{Family: "floodset-p", N: 5, F: 0, Claim: 1, Weight: 2},   // Theorem 10, graph phases skipped
	{Family: "registervote", N: 2, F: 0, Claim: 1, Weight: 2}, // the FLP corner
	{Family: "forward", N: 4, F: 1, Claim: 2, Weight: 4},      // Theorem 2
	{Family: "setboost", N: 2, F: 0, Claim: 1, Weight: 1},     // §4 boundary, as consensus
	{Family: "fdboost", N: 3, F: 0, Claim: 2, Weight: 1},      // §6.3, survives
	{Family: "forward", N: 5, F: 0, Claim: 1, Weight: 2},      // Theorem 2
}

// survives lists the refutations the paper says fail to find a violation.
func (c candidate) survives() bool { return c.Family == "fdboost" }

var refuteWorkload = workload{
	name:         "refute-theorems",
	opsPerCycle:  len(expand(refuteRotation)),
	nominalCycle: 2650 * time.Millisecond,
	setup:        setupRefute,
}

// certSummary is what the check needs of one certificate.
type certSummary struct {
	kind     boosting.ViolationKind
	failed   int
	distinct int
}

// refuteRecord is one Refute outcome as the check needs it.
type refuteRecord struct {
	cand     candidate
	violated bool
	certs    []certSummary
	// valences are the quotient classification's root valences (nil when
	// the graph phases were skipped or the safety sweep already refuted).
	valences []string
	states   int
	edges    int
}

type refuteSession struct {
	seed    int64
	records []refuteRecord
	traced  []tracedOp
}

func setupRefute(cfg config, _ int) (session, error) {
	s := &refuteSession{seed: cfg.seed}
	for _, c := range refuteRotation {
		if o := s.op(c, nil); o.err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", c.key(), o.err)
		}
	}
	return s, nil
}

func (s *refuteSession) cycle(c int, tr *tracer) []outcome {
	var out []outcome
	for _, cand := range order(refuteRotation, s.seed, c) {
		out = append(out, s.op(cand, tr))
	}
	return out
}

// timedCanon wraps the canonicalizer handed to the engines in
// BuildOptions.Symmetry, counting and timing every call.
type timedCanon struct {
	inner explore.Canonicalizer
	calls atomic.Int64
	ns    atomic.Int64
}

func (t *timedCanon) Canonical(st system.State) system.State {
	t0 := time.Now()
	out := t.inner.Canonical(st)
	t.ns.Add(int64(time.Since(t0)))
	t.calls.Add(1)
	return out
}

// op is one refutation from New to Close. Untraced it is the façade call;
// traced, the same analysis runs through explore.Refute with the family's
// canonicalizer wrapped in a timer.
func (s *refuteSession) op(c candidate, tr *tracer) outcome {
	var r0 rtSample
	if tr != nil {
		r0 = readRuntime()
	}
	start := time.Now()
	o := outcome{class: c.key(), start: start}
	var extra []boosting.Option
	_, symmetric := c.symmetrySpec()
	if symmetric && tr == nil {
		extra = append(extra, boosting.WithSymmetry())
	}
	chk, err := boosting.New(c.Family, c.N, c.F, c.facadeOptions(extra...)...)
	if err != nil {
		o.err, o.end = err, time.Now()
		return o
	}
	var rep *boosting.Report
	var canon *timedCanon
	if tr == nil {
		rep, err = chk.Refute(c.Claim)
	} else {
		opt := explore.RefuteOptions{Build: explore.BuildOptions{Workers: 1}, SkipGraphAnalysis: c.skipsGraph()}
		if symmetric {
			inner, cerr := c.canonicalizer(chk.System())
			if cerr != nil {
				o.err, o.end = cerr, time.Now()
				return o
			}
			canon = &timedCanon{inner: inner}
			opt.Build.Symmetry = canon
		}
		rep, err = explore.Refute(chk.System(), c.Claim, opt)
	}
	if err != nil {
		o.err, o.end = err, time.Now()
		return o
	}
	rec := refuteRecord{cand: c, violated: rep.Violated()}
	for _, cert := range rep.Certificates {
		vals := map[string]bool{}
		for _, v := range cert.Decisions {
			vals[v] = true
		}
		rec.certs = append(rec.certs, certSummary{kind: cert.Kind, failed: len(cert.Failed), distinct: len(vals)})
	}
	if rep.Inits != nil {
		for _, v := range rep.Inits.Valences {
			rec.valences = append(rec.valences, v.String())
		}
		rec.states, rec.edges = rep.Inits.Graph.Size(), rep.Inits.Graph.Edges()
	}
	if err := rep.Close(); err != nil {
		o.err = err
	}
	o.end = time.Now()
	o.explored = rec.states
	s.records = append(s.records, rec)
	if tr != nil {
		id := tr.newOp()
		t := tracedOp{cand: c, dur: o.end.Sub(start), gc: gcBlocking(r0, readRuntime()), states: rec.states, edges: rec.edges}
		root := tr.add("op", o.class, -1, id, start, o.end, int64(rec.states), 0)
		if canon != nil {
			t.sym = time.Duration(canon.ns.Load())
			// The canonicalization calls are spread through the operation;
			// their total is recorded as one child span ending with it.
			tr.add("symmetry.canonical", o.class, root, id, o.end.Add(-t.sym), o.end, canon.calls.Load(), 0)
		}
		s.traced = append(s.traced, t)
	}
	return o
}

func (s *refuteSession) check(refs referenceCache) error {
	for i, r := range s.records {
		if r.violated == r.cand.survives() {
			return fmt.Errorf("op %d %s: violated=%t, the paper's answer is violated=%t", i, r.cand.key(), r.violated, !r.cand.survives())
		}
		for _, c := range r.certs {
			if c.failed > r.cand.Claim {
				return fmt.Errorf("op %d %s: certificate fails %d processes, more than the claimed %d", i, r.cand.key(), c.failed, r.cand.Claim)
			}
			if c.kind == boosting.KindAgreement && c.distinct < 2 {
				return fmt.Errorf("op %d %s: agreement certificate decides %d distinct values", i, r.cand.key(), c.distinct)
			}
		}
		if r.valences == nil {
			continue
		}
		ref, err := refs.get(r.cand.graphKey())
		if err != nil {
			return err
		}
		if !slices.Equal(r.valences, ref.Valences) {
			return fmt.Errorf("op %d %s: quotient root valences %v, unreduced reference %v", i, r.cand.key(), r.valences, ref.Valences)
		}
	}
	return nil
}

// probe runs, per graph-bearing candidate, the symmetric Lemma 4 sweep,
// the hook search from its bivalent root and the layer replay over the
// quotient graph, then derives what remains of each refutation as the
// failure-scenario time.
func (s *refuteSession) probe(tr *tracer, refs referenceCache, m map[string]metric) error {
	weights := classWeights(s.traced)
	costs := map[string]time.Duration{}
	classify := map[string]time.Duration{}
	hook := map[string]time.Duration{}
	fixpoint := map[string]time.Duration{}
	var unreduced, quotient float64
	for _, c := range refuteRotation {
		if c.skipsGraph() {
			continue
		}
		p, err := probeClassify(tr, c, probe{symmetric: true, buildSpans: true, replay: true})
		if err != nil {
			return err
		}
		costs[c.key()] = p.perTransition
		classify[c.key()], hook[c.key()], fixpoint[c.key()] = p.classify, p.hook, p.fixpoint
		ref, err := refs.get(c.graphKey())
		if err != nil {
			return err
		}
		unreduced += weights[c.key()] * float64(ref.States)
		quotient += weights[c.key()] * float64(p.states)
	}
	layerMetrics(tr, weights, m)
	var states, edges float64
	var scenarios []float64
	for i := range s.traced {
		o := &s.traced[i]
		k := o.cand.key()
		states += float64(o.states)
		edges += float64(o.edges)
		scenarios = append(scenarios, float64(o.dur-classify[k]-hook[k])/1e6)
		o.measured = fixpoint[k] + hook[k]
	}
	n := float64(len(s.traced))
	exploreMetricsWeighted(tr, weights, m, states/n, edges/n)
	m["explore.scenarios_ms"] = metric{mean(scenarios), "ms"}
	sym := tr.named("symmetry.canonical")
	m["symmetry.canonical_ns"] = metric{perUnitNs(sym), "ns"}
	m["symmetry.calls"] = metric{float64(sumN(sym)) / n, "count"}
	m["symmetry.reduction"] = metric{ratio(unreduced, quotient), "ratio"}
	unattributed(s.traced, costs, m)
	return nil
}

func (s *refuteSession) close() {}

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}
