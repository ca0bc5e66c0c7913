package main

import (
	"fmt"

	"github.com/ioa-lab/boosting"
	"github.com/ioa-lab/boosting/internal/protocols"
	"github.com/ioa-lab/boosting/internal/symmetry"
	"github.com/ioa-lab/boosting/internal/system"
)

// candidate is one registry candidate as a workload uses it: the family and
// its sizes, the claim a refutation tests, the silence policy, and how many
// times one rotation cycle runs it.
type candidate struct {
	Family string
	N, F   int
	Claim  int
	Benign bool
	Weight int
}

// key names the candidate (and its claim) for caches and error messages.
func (c candidate) key() string {
	k := fmt.Sprintf("%s-n%d-f%d", c.Family, c.N, c.F)
	if c.Claim > 0 {
		k += fmt.Sprintf("-c%d", c.Claim)
	}
	if c.Benign {
		k += "-benign"
	}
	return k
}

// graphKey names the candidate's system, without the claim: the reference
// explorer's answer depends only on this.
func (c candidate) graphKey() candidate {
	c.Claim, c.Weight = 0, 0
	return c
}

// facadeOptions are the options every operation of the benchmark passes:
// the serial engine, plus the candidate's policy.
func (c candidate) facadeOptions(extra ...boosting.Option) []boosting.Option {
	opts := []boosting.Option{boosting.WithWorkers(1)}
	if c.Benign {
		opts = append(opts, boosting.WithSilencePolicy(boosting.Benign))
	}
	return append(opts, extra...)
}

// system builds the candidate's composed system through the façade.
func (c candidate) system() (*system.System, error) {
	chk, err := boosting.New(c.Family, c.N, c.F, c.facadeOptions()...)
	if err != nil {
		return nil, err
	}
	return chk.System(), nil
}

// symmetrySpec is the process-renaming group the family declares, or false
// for families that explore unreduced.
func (c candidate) symmetrySpec() (symmetry.Spec, bool) {
	switch c.Family {
	case "forward":
		return protocols.ForwardSymmetry(c.N), true
	case "tob":
		return protocols.TOBSymmetry(c.N), true
	case "registervote":
		return protocols.RegisterVoteSymmetry(c.N), true
	case "setboost":
		return protocols.SetBoostSymmetry(c.N), true
	}
	return symmetry.Spec{}, false
}

// skipsGraph reports families whose failure-free graph is infinite, so
// refutation goes straight to the failure scenarios.
func (c candidate) skipsGraph() bool {
	for _, p := range boosting.Protocols() {
		if p.Name == c.Family {
			return p.SkipsGraphAnalysis
		}
	}
	return false
}

// canonicalizer resolves the family's symmetry canonicalizer over sys, or
// nil for families without one.
func (c candidate) canonicalizer(sys *system.System) (*symmetry.Canonicalizer, error) {
	spec, ok := c.symmetrySpec()
	if !ok {
		return nil, nil
	}
	return symmetry.New(sys, spec)
}

// expand lists a rotation's operations, each candidate repeated by its
// weight, in rotation order.
func expand(rotation []candidate) []candidate {
	var out []candidate
	for _, c := range rotation {
		for i := 0; i < c.Weight; i++ {
			out = append(out, c)
		}
	}
	return out
}
