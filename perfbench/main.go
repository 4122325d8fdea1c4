// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives the simulator through trace.Scanner → sim.RunCircuitSource and
// the online daemon through the sunflowd binary over loopback HTTP, checks
// every output for correctness, and prints each metric with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// Usage (normally through run.sh, which builds this binary and sunflowd):
//
//	perfbench --workload paper|faults|daemon|all --seed N --seconds S --trace 0|1
//	          --sunflowd PATH --workdir DIR [--commit REV]
//
// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
// reports the per-layer breakdown from a separate run that switches on the
// program's own hooks (CircuitOptions.Obs and .Prof, the daemon's metric
// registry). README.md documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one workload run: metrics in print order, the
// attempted/failed operation counts, and every correctness-gate failure.
type report struct {
	names     []string
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a correctness-gate failure when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// config is what every workload run receives.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	sunflowd string // path to the sunflowd binary
	workdir  string // scratch space inside the checkout
}

func main() {
	workload := flag.String("workload", "", "paper, faults, daemon, or all")
	seed := flag.Int64("seed", canonicalSeed, "workload seed")
	seconds := flag.Int("seconds", 15, "measurement time per run in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	sunflowd := flag.String("sunflowd", "", "path to the sunflowd binary (daemon workload)")
	workdir := flag.String("workdir", "", "scratch directory for data directories")
	commit := flag.String("commit", "unknown", "source revision, recorded in the provenance line")
	flag.Parse()

	if _, set := os.LookupEnv("SUNFLOW_FULL_REPLAN"); set {
		fatal("SUNFLOW_FULL_REPLAN is set: it silently switches the simulator to the full-replan oracle; unset it")
	}
	if *traced != 0 && *traced != 1 {
		fatal("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatal("--seconds must be at least 1")
	}
	if *workdir == "" {
		fatal("--workdir is required")
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  float64(*seconds),
		traced:   *traced == 1,
		sunflowd: *sunflowd,
		workdir:  *workdir,
	}
	if *workload == "all" {
		os.Exit(runAll(cfg, *commit))
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Sprintf("unknown --workload %q (want %s or all)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatal(err.Error())
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		fatal(err.Error())
	}
	cfg.workdir = dir
	prov := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      *traced,
		"commit":     *commit,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
	if cfg.workload == "daemon" {
		prov["daemon_load"] = "closed loop, 1 connection"
	}
	b, _ := json.Marshal(prov) // a map of plain values always marshals
	fmt.Printf("provenance %s\n", b)

	rep := run(cfg)
	if err := os.RemoveAll(dir); err != nil {
		rep.check(false, "remove work directory: %v", err)
	}
	os.Exit(emit(rep))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) *report{
	"paper":  runSim,
	"faults": runSim,
	"daemon": runDaemon,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit prints the human-readable metric table, any gate failures, and the
// JSON result line; it returns the process exit code.
func emit(rep *report) int {
	for _, n := range rep.names {
		m := rep.metrics[n]
		fmt.Printf("metric %-24s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range rep.problems {
		fmt.Printf("GATE FAILED: %s\n", p)
	}
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so each workload's
// peak RSS is its own, and prints one combined result whose metric names are
// prefixed with the workload.
func runAll(cfg config, commit string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err.Error())
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloadNames() {
		fmt.Printf("== workload %s\n", w)
		cmd := exec.Command(self,
			"--workload", w,
			"--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(int(cfg.seconds)),
			"--trace", map[bool]string{false: "0", true: "1"}[cfg.traced],
			"--sunflowd", cfg.sunflowd,
			"--workdir", filepath.Join(cfg.workdir, w),
			"--commit", commit)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Printf("GATE FAILED: workload %s printed no result (%v)\n", w, err)
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && res.Correct && err == nil
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for n, m := range res.Metrics {
			all.Metrics[w+"."+n] = m
		}
	}
	b, _ := json.Marshal(all) // plain values always marshal
	fmt.Println(string(b))
	if !all.Correct {
		return 1
	}
	return 0
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	os.Exit(2)
}
