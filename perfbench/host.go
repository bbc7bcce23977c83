package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"hpcnmf/internal/mat"
)

// fingerprint describes the host and the build next to every run's
// metrics, so a figure can be traced to the machine and code that
// produced it.
func fingerprint() string {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+dirty"
				}
			}
		}
	}
	return fmt.Sprintf("host gomaxprocs=%d numcpu=%d cpu=%q isa=%s fma=%t supported=%s go=%s rev=%s%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), mat.ISA(), mat.FMAActive(),
		strings.Join(mat.SupportedISAs(), ","), runtime.Version(), rev, modified)
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown"
// where that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// repeatRuns runs the workload n times, each in a fresh process of
// this binary with its own seed, and prints each end-to-end metric's
// median, quartiles and quartile spread (Q3−Q1 over the median) — the
// figures the bounds in BENCHMARK.json are derived from.
func repeatRuns(name string, seed uint64, seconds float64, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(fingerprint())
	values := map[string][]float64{}
	units := map[string]string{}
	var names []string
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(s),
			"--seconds", fmt.Sprint(seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: %v\n", s, err)
			return 1
		}
		res, err := parseResult(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: %v\n", s, err)
			return 1
		}
		var line []string
		for k, m := range res.Metrics {
			if _, seen := units[k]; !seen {
				names = append(names, k)
				units[k] = m.Unit
			}
			values[k] = append(values[k], m.Value)
			line = append(line, fmt.Sprintf("%s=%.6g", k, m.Value))
		}
		fmt.Printf("seed %d correct=%t attempted=%d failed=%d %s\n",
			s, res.Correct, res.Attempted, res.Failed, strings.Join(sortStrings(line), " "))
	}
	fmt.Printf("%-22s %12s %12s %12s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, k := range sortStrings(names) {
		q1, q2, q3 := quartiles(values[k])
		fmt.Printf("%-22s %12.6g %12.6g %12.6g %7.2f%% %s\n", k, q1, q2, q3, 100*(q3-q1)/q2, units[k])
	}
	return 0
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// parseResult decodes the JSON object on the last line of a run's
// standard output.
func parseResult(out []byte) (runResult, error) {
	var res runResult
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	err := json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	return res, err
}

func sortStrings(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}
