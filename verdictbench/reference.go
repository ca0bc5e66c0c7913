package main

import (
	"fmt"
	"sort"

	"github.com/ioa-lab/boosting/internal/system"
)

// reference is the reference explorer's answer for one candidate: the
// counts of G(C) from the n+1 monotone initializations and their valences.
// It is computed apart from the engines — a map keyed by fingerprint, the
// System's own step function and Decisions, and a fixpoint of its own —
// so the engines' stores, symmetry reduction and valence sweep are never
// compared against themselves.
type reference struct {
	States        int
	Edges         int
	Valences      []string
	BivalentIndex int
}

// referenceLimit bounds the reference explorer; every candidate the
// workloads use stays far below it.
const referenceLimit = 1_000_000

// monotoneInputs is the input assignment of α_i: the first i processes (in
// the system's process order) receive "1", the rest "0".
func monotoneInputs(sys *system.System, i int) map[int]string {
	in := make(map[int]string)
	for k, id := range sys.ProcessIDs() {
		in[id] = "0"
		if k < i {
			in[id] = "1"
		}
	}
	return in
}

// initialize delivers one input per process, in process-id order, to the
// system's initial state.
func initialize(sys *system.System, inputs map[int]string) (system.State, error) {
	ids := make([]int, 0, len(inputs))
	for id := range inputs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	st := sys.InitialState()
	for _, id := range ids {
		next, _, err := sys.Init(st, id, inputs[id])
		if err != nil {
			return system.State{}, fmt.Errorf("init P%d: %w", id, err)
		}
		st = next
	}
	return st, nil
}

// referenceExplore runs the breadth-first closure of the monotone roots
// under every applicable task and classifies the roots by the decisions
// reachable from them.
func referenceExplore(sys *system.System) (reference, error) {
	index := make(map[string]int32)
	var states []system.State
	var succs [][]int32
	add := func(st system.State) int32 {
		fp := sys.Fingerprint(st)
		if id, ok := index[fp]; ok {
			return id
		}
		id := int32(len(states))
		index[fp] = id
		states = append(states, st)
		return id
	}
	n := len(sys.ProcessIDs())
	roots := make([]int32, 0, n+1)
	for i := 0; i <= n; i++ {
		st, err := initialize(sys, monotoneInputs(sys, i))
		if err != nil {
			return reference{}, err
		}
		roots = append(roots, add(st))
	}
	edges := 0
	for next := 0; next < len(states); next++ {
		if len(states) > referenceLimit {
			return reference{}, fmt.Errorf("reference explorer: more than %d states", referenceLimit)
		}
		st := states[next]
		var out []int32
		for _, task := range sys.Tasks() {
			if !sys.Applicable(st, task) {
				continue
			}
			succ, _, err := sys.Apply(st, task)
			if err != nil {
				return reference{}, fmt.Errorf("apply %v: %w", task, err)
			}
			out = append(out, add(succ))
			edges++
		}
		succs = append(succs, out)
	}
	// mask bit 1: "0" reachable; bit 2: "1" reachable.
	masks := make([]uint8, len(states))
	for i, st := range states {
		for _, v := range sys.Decisions(st) {
			switch v {
			case "0":
				masks[i] |= 1
			case "1":
				masks[i] |= 2
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := range states {
			m := masks[i]
			for _, t := range succs[i] {
				m |= masks[t]
			}
			if m != masks[i] {
				masks[i] = m
				changed = true
			}
		}
	}
	ref := reference{States: len(states), Edges: edges, BivalentIndex: -1}
	for i, r := range roots {
		v := valenceName(masks[r])
		ref.Valences = append(ref.Valences, v)
		if v == "bivalent" && ref.BivalentIndex < 0 {
			ref.BivalentIndex = i
		}
	}
	return ref, nil
}

func valenceName(m uint8) string {
	switch m {
	case 1:
		return "0-valent"
	case 2:
		return "1-valent"
	case 3:
		return "bivalent"
	default:
		return "unvalent"
	}
}

// referenceCache memoizes reference answers per candidate within one run.
type referenceCache map[string]reference

func (c referenceCache) get(cand candidate) (reference, error) {
	key := cand.key()
	if r, ok := c[key]; ok {
		return r, nil
	}
	sys, err := cand.system()
	if err != nil {
		return reference{}, err
	}
	r, err := referenceExplore(sys)
	if err != nil {
		return reference{}, fmt.Errorf("%s: %w", key, err)
	}
	c[key] = r
	return r, nil
}
