// Command perfbench is the repository benchmark. It drives seeded
// exploration workloads through the public API — service.Manager for
// three of them, the paper's Fig. 5 harness for the fourth — checks
// every job's Pareto front against a digest, and prints its metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tiny-jobs --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seconds 6
//
// With --trace 0 the last stdout line is a JSON object carrying every
// end-to-end metric; with --trace 1 it carries every per-layer metric
// (metrics.json lists them with the end-to-end metric each should move).
// Its rates are per CPU-second of the process and its set-up time is CPU
// time; the wall-clock rates, job latencies and set-up time appear only
// in the report, because CPU steal on a shared host moves them between
// runs of the same code.
// The lines before it are a human-readable report: the run environment
// and each metric's value, median, p99 and sample count. --workload all
// runs every workload untraced and traced and prints all reports.
//
// A run is correct when no job failed or was refused, every front
// matches its digest (the committed goldens in golden.json for seed 1,
// the run's own first pass for other seeds), first-pass fronts pass a
// structural check against the reference evaluator, deep-search fronts
// at Spec.Workers 2 equal those at 1, and — traced — every re-executed
// job reproduces the Manager job it shadows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed golden.json holds digests for.
const defaultSeed = 1

type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       bool
	workDir     string
	setupOnly   bool
	writeGolden string
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), "|")+"|all")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; job specs are a pure function of it")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for stores, checkpoints and obs files")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "run the workload's set-up once, print its CPU and wall-clock seconds and exit (used to time set-up in a fresh process)")
	flag.StringVar(&o.writeGolden, "write-golden", "", "write the run's pass digests to this golden file instead of checking them (seed 1 only)")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	if o.writeGolden != "" && o.seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "perfbench: goldens are kept for seed %d only\n", defaultSeed)
		return 2
	}
	if o.workload == "all" {
		return runAll(o)
	}
	w, ok := lookupWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s|all)\n", o.workload, strings.Join(workloadNames(), "|"))
		return 2
	}
	if o.setupOnly {
		t, err := timeSetup(w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(t.cpu.Seconds(), t.wall.Seconds())
		return 0
	}
	res, rep, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.print(os.Stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll is the one-command view: every workload untraced, then traced,
// each report printed as it completes.
func runAll(o options) int {
	code := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o.trace = traced
			res, rep, err := runWorkload(w, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
				code = 1
				continue
			}
			rep.print(os.Stdout)
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// metricValue and result are the JSON shape of the final stdout line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metric is one reported figure. A timing keeps its samples so the
// report can show median, p99 and the sample count beside the value.
type metric struct {
	name    string
	unit    string
	value   float64
	samples []float64
	na      bool // not applicable to this workload; reported as 0
	wall    bool // wall-clock figure: printed, left out of the JSON result
}

// report is the human-readable form of a run.
type report struct {
	header   string
	env      string
	notes    []string
	metrics  []metric
	attempts int
	failures int
	errors   []string
}

func (r *report) print(f *os.File) {
	fmt.Fprintln(f, r.header)
	fmt.Fprintln(f, r.env)
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	rate := 0.0
	if r.attempts > 0 {
		rate = float64(r.failures) / float64(r.attempts)
	}
	fmt.Fprintf(f, "  %-28s %-6s %14s   failed %d of %d attempted\n", "error_rate", "ratio", strconv.FormatFloat(rate, 'g', 6, 64), r.failures, r.attempts)
	for _, m := range r.metrics {
		switch {
		case m.na:
			fmt.Fprintf(f, "  %-28s %-6s %14s\n", m.name, m.unit, "n/a")
		case len(m.samples) > 0:
			fmt.Fprintf(f, "  %-28s %-6s %14.6g   median %.6g  p99 %.6g  n=%d%s\n", m.name, m.unit, m.value,
				quantile(m.samples, 0.5), quantile(m.samples, 0.99), len(m.samples), wallNote(m))
		default:
			fmt.Fprintf(f, "  %-28s %-6s %14.6g\n", m.name, m.unit, m.value)
		}
	}
	for _, e := range r.errors {
		fmt.Fprintln(f, "  ERROR", e)
	}
}

func wallNote(m metric) string {
	if m.wall {
		return "  (wall clock, not in the result line)"
	}
	return ""
}

func environment(workDir string) string {
	return fmt.Sprintf("  env: nproc=%d gomaxprocs=%d go=%s os=%s/%s fs=%s (%s)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		fsType(workDir), workDir)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
