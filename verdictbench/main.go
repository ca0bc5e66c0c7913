// Command verdictbench measures time and memory to a verdict: the façade's
// Lemma 4 sweep, the paper's refutations and boostd jobs, each checked
// against an independent reference explorer.
//
// Usage (from the repository root, through run.sh, which builds this
// package first):
//
//	bash verdictbench/run.sh --workload classify-exhaustive --seed 1 --seconds 25 --trace 0
//	bash verdictbench/run.sh --seed 1 --seconds 25             # all three workloads, one process each
//	bash verdictbench/run.sh --workload refute-theorems --steady 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the workloads,
// the metrics and the end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// workDirRoot is where every run keeps its scratch files (graph roots,
// durable probe directories, the trace file). It is relative to the
// directory the benchmark is started from — the repository root.
const workDirRoot = ".bench_build/verdictbench"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("verdictbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (empty = all, each in a fresh process)")
	seed := fs.Int64("seed", 1, "workload seed: orders the rotation and draws boostd's state-budget salts")
	seconds := fs.Int("seconds", 20, "nominal length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
	steady := fs.Int("steady", 0, "steadiness mode: run the workload this many times (seeds seed, seed+1, …) and print the spread of every metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "verdictbench: -seconds must be >= 1")
		return 2
	}
	if *steady > 0 {
		if *workload == "" {
			fmt.Fprintln(os.Stderr, "verdictbench: -steady needs -workload")
			return 2
		}
		return steadiness(*workload, *seed, *seconds, *trace, *steady)
	}
	if *workload == "" {
		return runAll(*seed, *seconds, *trace)
	}
	w, ok := lookupWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "verdictbench: unknown workload %q (have: %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(workDirRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "verdictbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(workDirRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "verdictbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	res, err := execute(w, config{seed: *seed, seconds: *seconds, traced: *trace == 1, work: work})
	if err != nil {
		fmt.Fprintf(os.Stderr, "verdictbench: %s: %v\n", w.name, err)
		return 1
	}
	printResult(res)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the one-line JSON object a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric by name with its unit, then the JSON
// line.
func printResult(r result) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-32s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	fmt.Printf("%-32s %14d\n%-32s %14d\n%-32s %14t\n", "attempted", r.Attempted, "failed", r.Failed, "correct", r.Correct)
	line, _ := json.Marshal(r)
	fmt.Println(string(line))
}

// runAll runs every workload in turn, each in a fresh process of this
// binary, and relays their output.
func runAll(seed int64, seconds, trace int) int {
	status := 0
	for _, name := range workloadNames() {
		fmt.Printf("== %s\n", name)
		out, err := runChild(name, seed, seconds, trace)
		os.Stdout.Write(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "verdictbench: %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}

// runChild runs one workload in a fresh process and returns its standard
// output.
func runChild(name string, seed int64, seconds, trace int) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// lastResult parses the JSON object on the last non-empty line of a run's
// output.
func lastResult(out []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return r, nil
}
