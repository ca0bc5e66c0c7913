package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"github.com/ioa-lab/boosting"
)

// classifyRotation is classify-exhaustive's weighted rotation of unreduced
// candidates (weights are operations per cycle). Sorted by latency the
// cycle's 15 operations are registervote (ranks 0–27%), setboost (27–33%),
// forward n=4 (33–73%), tob (73–80%) and forward n=5 (80–100%), so the p50
// falls inside the forward n=4 mode and the p90 inside the forward n=5
// mode, each well away from a boundary between two candidates.
var classifyRotation = []candidate{
	{Family: "registervote", N: 2, Weight: 4},
	{Family: "setboost", N: 2, Weight: 1},
	{Family: "forward", N: 4, Weight: 6},
	{Family: "tob", N: 3, Weight: 1},
	{Family: "forward", N: 5, Weight: 3},
}

var classifyWorkload = workload{
	name:         "classify-exhaustive",
	opsPerCycle:  len(expand(classifyRotation)),
	nominalCycle: 2200 * time.Millisecond,
	setup:        setupClassify,
}

// classifyRecord is one ClassifyInits outcome as the check needs it.
type classifyRecord struct {
	cand     candidate
	states   int
	edges    int
	valences []string
	bivalent int
}

type classifySession struct {
	seed    int64
	records []classifyRecord
	// traced-phase bookkeeping: per-op GC stalls and the ops' classes.
	traced []tracedOp
}

func setupClassify(cfg config, _ int) (session, error) {
	s := &classifySession{seed: cfg.seed}
	// One untimed warm-up of every distinct operation; their outputs are
	// checked with the rest.
	for _, c := range classifyRotation {
		if o := s.op(c, nil); o.err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", c.key(), o.err)
		}
	}
	return s, nil
}

// order is cycle c's operations in the seed's order.
func order(rotation []candidate, seed int64, c int) []candidate {
	ops := expand(rotation)
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(c)))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (s *classifySession) cycle(c int, tr *tracer) []outcome {
	var out []outcome
	for _, cand := range order(classifyRotation, s.seed, c) {
		out = append(out, s.op(cand, tr))
	}
	return out
}

// op is one façade call from New to Close.
func (s *classifySession) op(c candidate, tr *tracer) outcome {
	var last time.Time
	opts := c.facadeOptions()
	if tr != nil {
		opts = append(opts, boosting.WithProgress(func(boosting.Progress) { last = time.Now() }))
	}
	var r0 rtSample
	if tr != nil {
		r0 = readRuntime()
	}
	start := time.Now()
	o := outcome{class: c.key(), start: start}
	chk, err := boosting.New(c.Family, c.N, c.F, opts...)
	if err != nil {
		o.err, o.end = err, time.Now()
		return o
	}
	res, err := chk.ClassifyInits()
	returned := time.Now()
	if err != nil {
		o.err, o.end = err, returned
		return o
	}
	rec := classifyRecord{cand: c, states: res.Graph.Size(), edges: res.Graph.Edges(), bivalent: res.BivalentIndex}
	for _, v := range res.Valences {
		rec.valences = append(rec.valences, v.String())
	}
	if err := res.Close(); err != nil {
		o.err = err
	}
	o.end = time.Now()
	o.explored = rec.states
	s.records = append(s.records, rec)
	if tr != nil {
		id := tr.newOp()
		gc := gcBlocking(r0, readRuntime())
		root := tr.add("op", o.class, -1, id, start, o.end, int64(rec.states), 0)
		tr.add("explore.build", o.class, root, id, start, last, int64(rec.states), 0)
		tr.add("explore.fixpoint", o.class, root, id, last, returned, 0, 0)
		s.traced = append(s.traced, tracedOp{cand: c, dur: o.end.Sub(start), gc: gc, measured: returned.Sub(last), states: rec.states, edges: rec.edges})
	}
	return o
}

func (s *classifySession) check(refs referenceCache) error {
	for i, r := range s.records {
		ref, err := refs.get(r.cand.graphKey())
		if err != nil {
			return err
		}
		if r.states != ref.States || r.edges != ref.Edges || r.bivalent != ref.BivalentIndex || !slices.Equal(r.valences, ref.Valences) {
			return fmt.Errorf("op %d %s: got %d states, %d edges, valences %v, bivalent %d; reference %d, %d, %v, %d",
				i, r.cand.key(), r.states, r.edges, r.valences, r.bivalent, ref.States, ref.Edges, ref.Valences, ref.BivalentIndex)
		}
	}
	return nil
}

func (s *classifySession) probe(tr *tracer, _ referenceCache, m map[string]metric) error {
	weights := classWeights(s.traced)
	costs := map[string]time.Duration{}
	for _, c := range classifyRotation {
		p, err := probeClassify(tr, c, probe{replay: true})
		if err != nil {
			return err
		}
		costs[c.key()] = p.perTransition
	}
	layerMetrics(tr, weights, m)
	var states, edges float64
	for _, o := range s.traced {
		states += float64(o.states)
		edges += float64(o.edges)
	}
	n := float64(len(s.traced))
	exploreMetrics(tr, m, states/n, edges/n)
	m["symmetry.reduction"] = metric{1, "ratio"} // unreduced
	unattributed(s.traced, costs, m)
	return nil
}

func (s *classifySession) close() {}
