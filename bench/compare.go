package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strings"
)

// resultFile is what --out accumulates: the host record and one row per
// run. compare reads two of them.
type resultFile struct {
	Host host  `json:"host"`
	Rows []row `json:"rows"`
}

// row is one run of one workload.
type row struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
}

// appendRow adds rw to the result file at path, creating the file if
// needed. A file measured on another host is refused, so no file mixes
// hosts.
func appendRow(path string, rw row) error {
	f := resultFile{Host: hostRecord()}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var old resultFile
		if err := json.Unmarshal(data, &old); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if old.Host != f.Host {
			return fmt.Errorf("%s holds results from another host: %+v", path, old.Host)
		}
		f.Rows = old.Rows
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	f.Rows = append(f.Rows, rw)
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(out, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// bound is one end-to-end metric of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func compareMain(args []string) int {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fl.String("spec", "BENCHMARK.json", "the benchmark description holding the bounds")
	fl.Usage = func() {
		fmt.Fprintln(fl.Output(), "usage: bench compare [-spec BENCHMARK.json] parent.json change.json")
		fl.PrintDefaults()
	}
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() != 2 {
		fl.Usage()
		return 2
	}
	report, ok, err := compare(*specPath, fl.Arg(0), fl.Arg(1))
	fmt.Print(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// compare judges the runs in file b against those in file a, workload by
// workload. Each side's value of a metric is the median over its untraced
// runs, and its spread the distance between their quartiles as a share of
// that median. A metric whose spread on either side exceeds its bound is
// unresolved; otherwise b regresses when it is worse than a by more than
// the bound. Files from different hosts, and files that share no metric,
// are an error rather than a pass.
func compare(specPath, aPath, bPath string) (string, bool, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return "", false, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return "", false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readResults(aPath)
	if err != nil {
		return "", false, err
	}
	b, err := readResults(bPath)
	if err != nil {
		return "", false, err
	}
	if a.Host != b.Host {
		return "", false, fmt.Errorf("host records differ: %+v vs %+v", a.Host, b.Host)
	}
	va, vb := values(a), values(b)
	var workloads []string
	for w := range va {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)

	var out strings.Builder
	fmt.Fprintf(&out, "%-14s %-13s %12s %12s %9s %6s %15s  %s\n",
		"workload", "metric", "parent", "change", "change", "bound", "spread a/b", "verdict")
	matched, regressions := 0, 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := va[w][m.Name], vb[w][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			matched++
			ma, mb := quantile(xa, 0.5), quantile(xb, 0.5)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			sa, sb := spread(xa), spread(xb)
			verdict := "same"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressions++
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(&out, "%-14s %-13s %12.6g %12.6g %+8.2f%% %5.0f%% %6.1f%%/%6.1f%%  %s\n",
				w, m.Name, ma, mb, 100*change, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	if matched == 0 {
		return out.String(), false, errors.New("no metric matched: the files share no workload's end-to-end metrics")
	}
	fmt.Fprintf(&out, "%d metrics compared, %d regressions\n", matched, regressions)
	return out.String(), regressions == 0, nil
}

// values collects each workload's end-to-end metric values over the
// untraced runs of f.
func values(f *resultFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, rw := range f.Rows {
		if rw.Trace {
			continue
		}
		if out[rw.Workload] == nil {
			out[rw.Workload] = map[string][]float64{}
		}
		for _, m := range rw.Metrics {
			out[rw.Workload][m.Name] = append(out[rw.Workload][m.Name], m.Value)
		}
	}
	return out
}

// spread is the distance between the quartiles of xs as a share of their
// median, with quartiles computed as Python's statistics.quantiles(xs, n=4)
// does (its default exclusive method). Fewer than two values have no
// spread.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}
