// Command gsbench is graphsketch's benchmark: closed-loop update-then-query
// workloads driven through the library's public functions, every answer
// checked against an exact reference.
//
//	gsbench --workload vconn-dense --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The line before it
// stamps the host, the seed, the workload's sizes and each timed
// sample's median and quartiles. See README.md for the workloads and
// metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload: vconn-dense, hybrid-sparse or tcp-cluster")
		seed     = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 25, "length of the measured loop; sets the window count")
		trace    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		traceOut = flag.String("trace-out", "", "traced spans JSON (default .bench_build/trace/<workload>-<seed>.json)")
		sweep    = flag.Int("sweep", 0, "run this many seeds from --seed as separate processes and print each metric's median and quartiles across them")
	)
	flag.Parse()
	sp, err := specByName(*name)
	if err != nil {
		fatal(err)
	}
	if *sweep > 0 {
		if err := runSweep(sp, *seed, *sweep, *seconds, *trace); err != nil {
			fatal(err)
		}
		return
	}
	n := max(sp.minWindows, int(math.Ceil(float64(*seconds)*sp.windowsPerSec)))
	out := *traceOut
	if *trace == 1 && out == "" {
		out = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", sp.name, *seed))
	}
	o, err := runOnce(sp, *seed, n, *trace == 1, out)
	if err != nil {
		fatal(err)
	}
	if o.t.firstErr != "" {
		fmt.Fprintf(os.Stderr, "gsbench: %d of %d operations failed; first: %s\n", o.t.failed, o.t.attempted, o.t.firstErr)
	}
	in := o.in
	ntConn, ntDisc := nontrivial(in)
	stamp := map[string]any{
		"host":     hostInfo(),
		"workload": sp.name,
		"seed":     *seed,
		"trace":    *trace,
		"sizes": map[string]any{
			"n": sp.n, "windows": n, "updates_per_window": in.updates,
			"batch": sp.batch, "queries_per_window": len(in.windows[0].queries),
			"queries": len(in.windows) * len(in.windows[0].queries), "nontrivial_connected": ntConn,
			"nontrivial_disconnected_by": ntDisc, "initial_edges": updatesOf(in.initial), "avg_degree": in.avgDegree,
			"segments": sp.segments, "checkpoint_reps": sp.segments * sp.ckptReps, "restore_reps": sp.segments * sp.restoreReps,
		},
		"samples": o.samples,
	}
	if err := printJSON(map[string]any{"stamp": stamp}); err != nil {
		fatal(err)
	}
	res := map[string]any{
		"correct":   o.t.failed == 0,
		"attempted": o.t.attempted,
		"failed":    o.t.failed,
		"metrics":   o.metrics,
	}
	if err := printJSON(res); err != nil {
		fatal(err)
	}
}

// runOnce generates the inputs, then runs the workload untraced or traced.
func runOnce(sp *spec, seed uint64, windows int, traced bool, out string) (*outcome, error) {
	in := sp.gen(newRand(seed), sp, windows)
	var o *outcome
	var err error
	if traced {
		o, err = runTraced(sp, in, seed, out)
	} else {
		o, err = runUntraced(sp, in)
	}
	if o != nil {
		o.in = in
	}
	return o, err
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gsbench:", err)
	os.Exit(1)
}

// hostInfo identifies the machine a result came from.
func hostInfo() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

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

// runSweep runs the benchmark once per seed, each in its own process, and
// prints every metric's median, quartiles and spread (interquartile range
// over median) across the runs.
func runSweep(sp *spec, first uint64, runs, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < runs; i++ {
		seed := first + uint64(i)
		cmd := exec.Command(self, "--workload", sp.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		outb, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
		var res struct {
			Correct bool              `json:"correct"`
			Failed  int64             `json:"failed"`
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: %d failed operations", seed, res.Failed)
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "gsbench: sweep %s seed %d done\n", sp.name, seed)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	table := map[string]any{}
	for _, k := range names {
		s := summarize(values[k])
		table[k] = map[string]any{"unit": units[k], "median": s.Median, "q1": s.Q1, "q3": s.Q3,
			"spread": (s.Q3 - s.Q1) / s.Median, "values": values[k]}
		fmt.Printf("%-34s %12.4g %-6s q1 %-12.4g q3 %-12.4g spread %5.1f%%\n",
			k, s.Median, units[k], s.Q1, s.Q3, 100*(s.Q3-s.Q1)/s.Median)
	}
	return printJSON(map[string]any{"host": hostInfo(), "workload": sp.name, "runs": runs,
		"first_seed": first, "seconds": seconds, "trace": trace, "metrics": table})
}
