package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// config is what one workload run is given.
type config struct {
	seed    int64
	seconds int
	traced  bool
	work    string // scratch directory, removed at exit
}

// outcome is one completed operation.
type outcome struct {
	class    string
	start    time.Time
	end      time.Time
	err      error
	explored int // states this operation built (0 for cache hits)
}

func (o outcome) ms() float64 { return float64(o.end.Sub(o.start)) / 1e6 }

// session is a workload after set-up: it runs whole rotation cycles, checks
// every recorded output against the reference explorer, and in a traced run
// replays the per-layer probes.
type session interface {
	// cycle runs rotation cycle c (cycles are numbered across phases, so a
	// traced phase after an untraced one draws fresh inputs).
	cycle(c int, tr *tracer) []outcome
	// check verifies every output recorded so far.
	check(refs referenceCache) error
	// probe runs the per-layer probes after the timed phases and adds the
	// layer metrics it owns.
	probe(tr *tracer, refs referenceCache, m map[string]metric) error
	close()
}

// workload is one entry of the benchmark.
type workload struct {
	name string
	// opsPerCycle and nominalCycle fix the amount of work from -seconds:
	// a run executes ceil(seconds/nominalCycle) whole cycles (at least
	// minOps operations), so every run of a seed does the same work and
	// the failed share is the same in every run. nominalCycle is the cost
	// of one cycle on the reference machine (2-CPU x86-64 container).
	opsPerCycle  int
	nominalCycle time.Duration
	setup        func(cfg config, attempt int) (session, error)
}

// minOps keeps ten samples beyond the p90 in every run.
const minOps = 100

// setupAttempts is how many times a run sets up; setup_s is their median.
const setupAttempts = 3

var workloads = []workload{classifyWorkload, refuteWorkload, boostdWorkload}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cycles is the number of whole cycles a run of the given length executes.
func (w workload) cycles(seconds int) int {
	c := int(math.Ceil(float64(seconds) * float64(time.Second) / float64(w.nominalCycle)))
	if min := (minOps + w.opsPerCycle - 1) / w.opsPerCycle; c < min {
		c = min
	}
	return c
}

// phase is what one timed phase measured.
type phase struct {
	wall      time.Duration
	cpu       time.Duration
	alloc     uint64
	gcCPU     float64
	gcCycles  uint64
	outcomes  []outcome
	attempted int
	failed    int
	explored  int
}

// runtime/metrics samples read around a phase.
var sampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
	"/cpu/classes/gc/pause:cpu-seconds",
	"/gc/heap/live:bytes",
}

type rtSample struct {
	alloc    uint64
	gcCPU    float64
	gcCycles uint64
	assist   float64
	pause    float64
	live     uint64
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		alloc:    s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		gcCycles: s[2].Value.Uint64(),
		assist:   s[3].Value.Float64(),
		pause:    s[4].Value.Float64(),
		live:     s[5].Value.Uint64(),
	}
}

// gcBlocking is the GC time that stalls a serial caller between two
// samples: its mark assists plus the stop-the-world pauses (reported as
// CPU time across GOMAXPROCS).
func gcBlocking(a, b rtSample) time.Duration {
	s := (b.assist - a.assist) + (b.pause-a.pause)/float64(runtime.GOMAXPROCS(0))
	return time.Duration(s * 1e9)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runPhase runs cycles [from, from+n) and measures them.
func runPhase(s session, from, n int, tr *tracer) phase {
	runtime.GC()
	r0 := readRuntime()
	c0 := processCPU()
	t0 := time.Now()
	var p phase
	for c := from; c < from+n; c++ {
		p.outcomes = append(p.outcomes, s.cycle(c, tr)...)
	}
	p.wall = time.Since(t0)
	p.cpu = processCPU() - c0
	r1 := readRuntime()
	p.alloc = r1.alloc - r0.alloc
	p.gcCPU = r1.gcCPU - r0.gcCPU
	p.gcCycles = r1.gcCycles - r0.gcCycles
	p.attempted = len(p.outcomes)
	for _, o := range p.outcomes {
		if o.err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "verdictbench: %s failed: %v\n", o.class, o.err)
		}
		p.explored += o.explored
	}
	return p
}

// execute sets the workload up, runs its timed phase (and, traced, a
// second traced phase plus the layer probes), checks every output against
// the reference explorer, and assembles the result.
func execute(w workload, cfg config) (result, error) {
	var setups []float64
	var s session
	for i := 0; i < setupAttempts; i++ {
		t0 := time.Now()
		si, err := w.setup(cfg, i)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupAttempts-1 {
			si.close()
		} else {
			s = si
		}
	}
	defer s.close()
	n := w.cycles(cfg.seconds)
	p := runPhase(s, 0, n, nil)
	res := result{Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	refs := referenceCache{}
	if !cfg.traced {
		lat := make([]float64, 0, len(p.outcomes))
		for _, o := range p.outcomes {
			if o.err == nil {
				lat = append(lat, o.ms())
			}
		}
		p50, ok50 := tailPercentile(lat, 0.50)
		p90, ok90 := tailPercentile(lat, 0.90)
		if !ok50 || !ok90 {
			return result{}, fmt.Errorf("%d latency samples leave fewer than ten beyond the p90", len(lat))
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["wall_s"] = metric{p.wall.Seconds(), "s"}
		res.Metrics["cpu_s"] = metric{p.cpu.Seconds(), "s"}
		res.Metrics["ops_per_s"] = metric{float64(p.attempted-p.failed) / p.wall.Seconds(), "1/s"}
		res.Metrics["op_p50_ms"] = metric{p50, "ms"}
		res.Metrics["op_p90_ms"] = metric{p90, "ms"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		res.Metrics["alloc_mb"] = metric{float64(p.alloc) / 1e6, "MB"}
	} else {
		// Runtime figures come from the untraced phase; the live heap is
		// read after a forced GC with every recorded result still held.
		runtime.GC()
		live := readRuntime().live
		tr := newTracer()
		tp := runPhase(s, n, n, tr)
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		m := res.Metrics
		m["runtime.gc_cpu_s"] = metric{p.gcCPU, "s"}
		m["runtime.gc_cycles"] = metric{float64(p.gcCycles), "count"}
		m["runtime.alloc_bytes_per_state"] = metric{ratio(float64(p.alloc), float64(p.explored)), "B"}
		m["runtime.live_heap_mb"] = metric{float64(live) / 1e6, "MB"}
		m["trace.overhead_s"] = metric{tp.wall.Seconds() - p.wall.Seconds(), "s"}
		if err := s.probe(tr, refs, m); err != nil {
			return result{}, fmt.Errorf("layer probes: %w", err)
		}
		for name, unit := range layerUnits {
			if _, ok := m[name]; !ok {
				m[name] = metric{0, unit}
			}
		}
		if err := tr.write(filepath.Join(workDirRoot, "trace-"+w.name+".json"), w.name, cfg.seed); err != nil {
			return result{}, err
		}
	}
	if err := s.check(refs); err != nil {
		fmt.Fprintf(os.Stderr, "verdictbench: %s: check failed: %v\n", w.name, err)
		res.Correct = false
	} else {
		res.Correct = true
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 2
	if len(s)%2 == 1 {
		return s[k]
	}
	return (s[k-1] + s[k]) / 2
}

// tailPercentile returns the p-quantile of xs (linear interpolation
// between closest ranks), and false unless at least ten samples lie
// strictly beyond its rank: a percentile with fewer is no tail.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	pos := p * float64(n-1)
	if float64(n-1)-math.Floor(pos) < 10 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), true
}
