// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed time, checks every output it gets back against
// a computation of its own, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as one JSON object on the last
// line of standard output. See README.md for the workloads, the
// metrics and how each layer metric maps to an end-to-end one.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload dense-2d --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload dense-2d --seed 1 --seconds 15 --repeat 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"hpcnmf/internal/trace"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) error{
	"dense-2d":      runDense2D,
	"sparse-topics": runSparseTopics,
	"tiled-stream":  runTiledStream,
	"serve-cluster": runServeCluster,
}

// workDir holds everything a run writes (tile files, model stores,
// traces); it lives inside the checkout, under the build directory
// .gitignore already excludes.
const workDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "how long the timed loop runs")
	traced := fs.Int("trace", 0, "1 prints per-layer metrics and writes a Chrome trace; 0 prints end-to-end metrics")
	repeat := fs.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...), each in its own process, and print each end-to-end metric's median and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be > 0 and -trace 0 or 1")
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(*name, *seed, *seconds, *repeat)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{
		seed:    *seed,
		seconds: *seconds,
		traced:  *traced == 1,
		dir:     dir,
		ops:     map[string]*opCount{},
	}
	if e.traced {
		e.sess = trace.NewSession(numTracks, 0)
	}
	fmt.Println(fingerprint())
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", *name, *seed, *seconds, *traced)
	werr := runner(e)
	if e.traced {
		path := fmt.Sprintf("%s/trace-%s-seed%d.json", workDir, *name, *seed)
		if err := e.sess.Merge().WriteChromeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Printf("wrote trace %s\n", path)
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, werr)
		return 1
	}
	return e.report()
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// numTracks is the number of trace tracks: the main goroutine and one
// per load-generating client.
const numTracks = 1 + clients

// env is one run's state: its parameters, its counters and the
// metrics it reports.
type env struct {
	seed    uint64
	seconds float64
	traced  bool
	dir     string
	sess    *trace.Session // nil when untraced

	ops     map[string]*opCount
	opOrder []string
	metrics []metric
}

type opCount struct{ attempted, failed int }

type metric struct {
	name, unit string
	value      float64
}

// tracer returns the tracer of a track, nil (spans are no-ops) when
// the run is untraced. Each track belongs to one goroutine.
func (e *env) tracer(track int) *trace.Tracer {
	if e.sess == nil {
		return nil
	}
	return e.sess.Tracer(track)
}

// op records one attempted operation of the given kind.
func (e *env) op(kind string, err error) {
	c := e.ops[kind]
	if c == nil {
		c = &opCount{}
		e.ops[kind] = c
		e.opOrder = append(e.opOrder, kind)
	}
	c.attempted++
	if err != nil {
		c.failed++
	}
}

// add reports one metric.
func (e *env) add(name, unit string, v float64) {
	e.metrics = append(e.metrics, metric{name, unit, v})
}

// deadline is when the timed loop that starts now must stop.
func (e *env) deadline(frac float64) time.Time {
	return time.Now().Add(time.Duration(frac * e.seconds * float64(time.Second)))
}

// report prints the counts and metrics and the closing JSON line.
func (e *env) report() int {
	if err := e.checkDeclared(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	attempted, failed := 0, 0
	for _, k := range e.opOrder {
		c := e.ops[k]
		fmt.Printf("ops %-14s attempted %6d failed %d\n", k, c.attempted, c.failed)
		attempted += c.attempted
		failed += c.failed
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]jm{}}
	for _, m := range e.metrics {
		fmt.Printf("metric %-28s %14.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jm{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if attempted == 0 {
		return 1
	}
	return 0
}

// cpuSeconds is the CPU time the process has used so far, user and
// system. Unlike wall time it leaves out time the host stole from the
// process's vCPUs.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB is the process's resident-set high-water mark so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// checkDeclared checks the run's metrics against BENCHMARK.json in the
// working directory: every metric the mode declares (end_to_end
// untraced, per_layer traced) is reported exactly once, with its
// declared unit, and nothing else is.
func (e *env) checkDeclared() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("reading the metric declarations: %w", err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	want := spec.EndToEnd
	if e.traced {
		want = spec.PerLayer
	}
	units := map[string]string{}
	for _, d := range want {
		units[d.Name] = d.Unit
	}
	seen := map[string]bool{}
	for _, m := range e.metrics {
		u, ok := units[m.name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", m.name)
		case seen[m.name]:
			return fmt.Errorf("metric %s reported twice", m.name)
		case u != m.unit:
			return fmt.Errorf("metric %s has unit %s, BENCHMARK.json says %s", m.name, m.unit, u)
		}
		seen[m.name] = true
	}
	for _, d := range want {
		if !seen[d.Name] {
			return fmt.Errorf("declared metric %s was not measured", d.Name)
		}
	}
	return nil
}
