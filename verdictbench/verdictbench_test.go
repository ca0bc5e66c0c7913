package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"slices"
	"testing"

	"github.com/ioa-lab/boosting/internal/server"
)

// streamBytes renders clients' streams over cycles -1 … cycles-1.
func streamBytes(t *testing.T, seed int64, cycles int) []byte {
	t.Helper()
	var out []byte
	for k := 0; k < boostdClients; k++ {
		for c := -1; c < cycles; c++ {
			b, err := json.Marshal(clientCycle(seed, k, c))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
		}
	}
	return out
}

func TestStreamDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 77} {
		a, b := streamBytes(t, seed, 200), streamBytes(t, seed, 200)
		if !slices.Equal(a, b) {
			t.Fatalf("seed %d: two renderings of the request stream differ", seed)
		}
	}
	if slices.Equal(streamBytes(t, 1, 20), streamBytes(t, 2, 20)) {
		t.Fatal("seeds 1 and 2 give the same request stream")
	}
}

func TestStreamPredictedClasses(t *testing.T) {
	want := []server.CacheState{server.CacheMiss, server.CacheDelta, server.CacheMiss, server.CacheMiss, server.CacheHit}
	for k := 0; k < boostdClients; k++ {
		for c := -1; c < 200; c++ {
			cyc := clientCycle(5, k, c)
			var got []server.CacheState
			for _, r := range cyc {
				got = append(got, r.Predict)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("client %d cycle %d predicts %v, want %v", k, c, got, want)
			}
			// The delta step is the classify's policy variant: same
			// salt, so the same policy-blind delta key.
			if cyc[0].Req.Options.MaxStates != cyc[1].Req.Options.MaxStates || cyc[1].Req.Options.Policy != "benign" {
				t.Fatalf("client %d cycle %d: delta step is not the classify's benign variant", k, c)
			}
			// The hit is an exact repeat of the client's primed hot set.
			if !slices.ContainsFunc(hotSet(k), func(r server.Request) bool {
				a, _ := json.Marshal(r)
				b, _ := json.Marshal(cyc[4].Req)
				return string(a) == string(b)
			}) {
				t.Fatalf("client %d cycle %d: hit is not from the hot set", k, c)
			}
		}
	}
}

// TestSaltsDisjoint checks that no cold request repeats a salt — within a
// client, across clients, or with a hot-set entry — over more cycles than
// any run executes.
func TestSaltsDisjoint(t *testing.T) {
	const cycles = 1000
	if n := boostdWorkload.cycles(60); 2*n > cycles {
		t.Fatalf("a 60 s traced run uses %d cycles, more than the %d checked", 2*n, cycles)
	}
	owner := map[int]string{}
	claim := func(ms int, who string) {
		if prev, ok := owner[ms]; ok {
			t.Fatalf("salt %d used by %s and %s", ms, prev, who)
		}
		owner[ms] = who
	}
	for _, seed := range []int64{1, 9} {
		clear(owner)
		for k := 0; k < boostdClients; k++ {
			for _, r := range hotSet(k) {
				claim(r.Options.MaxStates, "a hot-set entry")
			}
		}
		for k := 0; k < boostdClients; k++ {
			for c := -1; c < cycles; c++ {
				cyc := clientCycle(seed, k, c)
				claim(cyc[0].Req.Options.MaxStates, "a classify")
				claim(cyc[2].Req.Options.MaxStates, "a refutation")
				claim(cyc[3].Req.Options.MaxStates, "a refutation")
			}
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for n := 1; n <= 250; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		for _, p := range []float64{0.5, 0.9, 0.99} {
			pos := p * float64(n-1)
			beyond := 0
			for i := 0; i < n; i++ {
				if float64(i) > pos {
					beyond++
				}
			}
			v, ok := tailPercentile(xs, p)
			if ok != (beyond >= 10) {
				t.Fatalf("n=%d p=%g: ok=%t with %d samples beyond", n, p, ok, beyond)
			}
			if ok {
				want := 1 + pos // the sorted sample is 1 … n
				if math.Abs(v-want) > 1e-9 {
					t.Fatalf("n=%d p=%g: got %g, want %g", n, p, v, want)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g", q1, q2, q3)
	}
}

// graphCandidates is every candidate with a finite failure-free graph that
// a workload builds.
func graphCandidates() []candidate {
	seen := map[string]bool{}
	var out []candidate
	add := func(c candidate) {
		c = c.graphKey()
		if !c.skipsGraph() && !seen[c.key()] {
			seen[c.key()] = true
			out = append(out, c)
		}
	}
	for _, c := range classifyRotation {
		add(c)
	}
	for _, c := range refuteRotation {
		add(c)
	}
	add(candidate{Family: "forward", N: 4})
	add(candidate{Family: "forward", N: 4, Benign: true})
	return out
}

func TestReferenceRootValences(t *testing.T) {
	if testing.Short() {
		t.Skip("explores forward n=5 and tob n=3")
	}
	for _, c := range graphCandidates() {
		ref, err := referenceCache{}.get(c)
		if err != nil {
			t.Fatal(err)
		}
		n := len(ref.Valences)
		if ref.Valences[0] != "0-valent" || ref.Valences[n-1] != "1-valent" {
			t.Errorf("%s: all-zeros root %s, all-ones root %s", c.key(), ref.Valences[0], ref.Valences[n-1])
		}
	}
}

// TestBenchmarkFileMatches checks that BENCHMARK.json at the repository
// root names only workloads this command runs and exactly the per-layer
// metrics a traced run reports, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	listed := map[string]string{}
	for _, m := range b.PerLayer {
		listed[m.Name] = m.Unit
	}
	if !maps.Equal(listed, layerUnits) {
		t.Errorf("BENCHMARK.json per_layer %v\ndiffers from the reported metrics %v", listed, layerUnits)
	}
}
