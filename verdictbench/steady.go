package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// steadiness runs one workload k times, each in a fresh process with seeds
// seed, seed+1, …, and prints per metric the median, the quartiles (as
// Python's statistics.quantiles(values, n=4) gives them), the
// interquartile spread and (max−min) as shares of the median. The bounds
// in BENCHMARK.json are derived from this output.
func steadiness(name string, seed int64, seconds, trace, k int) int {
	if _, ok := lookupWorkload(name); !ok {
		fmt.Fprintf(os.Stderr, "verdictbench: unknown workload %q\n", name)
		return 2
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failedShare []float64
	for i := 0; i < k; i++ {
		out, err := runChild(name, seed+int64(i), seconds, trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "verdictbench: run %d: %v\n", i, err)
			return 1
		}
		r, err := lastResult(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "verdictbench: run %d: %v\n", i, err)
			return 1
		}
		if !r.Correct {
			fmt.Fprintf(os.Stderr, "verdictbench: run %d: outputs incorrect\n", i)
			return 1
		}
		failedShare = append(failedShare, float64(r.Failed)/float64(r.Attempted))
		for n, m := range r.Metrics {
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "verdictbench: %s seed %d done\n", name, seed+int64(i))
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s, %d runs, seeds %d..%d, %d s\n", name, k, seed, seed+int64(k)-1, seconds)
	fmt.Printf("%-32s %12s %12s %12s %8s %8s %s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "unit")
	for _, n := range names {
		v := values[n]
		q1, med, q3 := quartiles(v)
		lo, hi := minMax(v)
		fmt.Printf("%-32s %12.6g %12.6g %12.6g %8.4f %8.4f %s\n", n, med, q1, q3,
			ratio(q3-q1, math.Abs(med)), ratio(hi-lo, math.Abs(med)), units[n])
	}
	lo, hi := minMax(failedShare)
	fmt.Printf("failed share: min %g max %g\n", lo, hi)
	return 0
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the default
// exclusive method); it needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j >= n {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func minMax(xs []float64) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
