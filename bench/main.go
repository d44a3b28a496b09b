// Command bench is the repository benchmark. Each run measures one
// workload in its own process — a fixed-work optimizer search or a traffic
// mix against the plan-caching service — checks every output, and prints
// its metrics; the last line of standard output is a JSON summary.
//
//	bench --workload search-bert --seed 1 --seconds 10 --trace 0 [--out results.json]
//	bench --workload all ...            run every workload, each in a child process
//	bench compare parent.json change.json
//
// With --trace 1 the run records spans around its calls into each layer
// and reports the per-layer metrics instead of the end-to-end ones.
// README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workloadNames are the workloads in the order --workload all runs them.
var workloadNames = []string{"search-bert", "search-nasnet", "serve-hot", "serve-churn"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	cfg := config{setups: 3}
	var seconds, trace int
	var out, spans string
	flag.StringVar(&cfg.workload, "workload", "all", "the workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "the seed the workload's inputs are drawn from")
	flag.IntVar(&seconds, "seconds", 10, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&out, "out", "", "append the result row to this JSON file")
	flag.StringVar(&spans, "spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>-seed<n>.json)")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: want --seconds >= 1, --trace 0 or 1, and no other arguments")
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if cfg.workload == "all" {
		os.Exit(runAll(cfg.seed, seconds, trace, out))
	}
	if !slices.Contains(workloadNames, cfg.workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want %s or all)\n", cfg.workload, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}

	r, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	r.print(os.Stdout)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	rw := r.row()
	if out != "" {
		if err := appendRow(out, rw); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if cfg.trace {
		if spans == "" {
			spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		}
		if err := writeSpans(spans, r); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	summary, err := json.Marshal(rw.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(summary))
	if !rw.Correct {
		os.Exit(1)
	}
}

// execute runs one workload.
func execute(cfg config) (*run, error) {
	r := &run{cfg: cfg}
	if cfg.trace {
		r.rec = newRecorder()
	}
	var err error
	if strings.HasPrefix(cfg.workload, "search-") {
		err = runSearch(r, searchWorkloads[cfg.workload])
	} else {
		err = runServe(r)
	}
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		r.put(exact("peak_rss_mb", "MB", peakRSSMB()))
	}
	return r, nil
}

// runAll runs every workload in a child process of its own, so no
// workload's heap or peak RSS leaks into the next one's numbers.
func runAll(seed int64, seconds, trace int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, name := range workloadNames {
		args := []string{"--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace)}
		if out != "" {
			args = append(args, "--out", out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}

func (r *run) row() row {
	return row{
		Workload:  r.cfg.workload,
		Seed:      r.cfg.seed,
		Seconds:   r.cfg.window.Seconds(),
		Trace:     r.cfg.trace,
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// summary is the last line of standard output.
func (rw row) summary() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range rw.Metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rw.Correct, rw.Attempted, rw.Failed, ms}
}

func (r *run) print(w io.Writer) {
	h := hostRecord()
	fmt.Fprintf(w, "%s seed=%d window=%v trace=%v | GOMAXPROCS=%d nproc=%d cpu=%q %s tmp=%s\n",
		r.cfg.workload, r.cfg.seed, r.cfg.window, r.cfg.trace, h.GOMAXPROCS, h.NProc, h.CPU, h.Go, h.TempFS)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-26s %14.6g %-6s n=%-5d q1=%-12.6g q3=%.6g\n", m.Name, m.Value, m.Unit, m.N, m.Q1, m.Q3)
	}
	fmt.Fprintf(w, "  checks: %d attempted, %d failed\n", r.attempted, r.failed)
}

func writeSpans(path string, r *run) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{r.cfg.workload, r.cfg.seed, r.rec.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
