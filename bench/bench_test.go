package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// spec reads the metric names BENCHMARK.json declares.
func spec(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	for _, m := range s.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range s.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload untraced and traced with one set-up and a
// two-second window: all checks pass and the result names exactly the
// metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice; about a minute and a half")
	}
	t.Setenv("TMPDIR", t.TempDir())
	endToEnd, perLayer := spec(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			r, err := execute(config{workload: w, seed: 1, window: 2 * time.Second, trace: trace, setups: 1})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if r.failed > 0 || r.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d checks failed: %s", w, trace, r.failed, r.attempted, strings.Join(r.problems, "; "))
			}
			var got []string
			for _, m := range r.metrics {
				got = append(got, m.Name)
			}
			want := slices.Clone(endToEnd)
			if trace {
				want = slices.Clone(perLayer)
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: metrics\n%v\nwant\n%v", w, trace, got, want)
			}
		}
	}
}

func writeResults(t *testing.T, h host, rows ...row) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "results.json")
	data, err := json.Marshal(resultFile{Host: h, Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func p50Row(workload string, v float64) row {
	return row{Workload: workload, Metrics: []metric{exact("p50_ms", "ms", v)}}
}

// TestCompare: compare flags a regression past the bound, passes a change
// within it, and refuses files that match no metric or come from
// different hosts.
func TestCompare(t *testing.T) {
	h := hostRecord()
	parent := writeResults(t, h, p50Row("serve-hot", 10), p50Row("serve-hot", 10.2), p50Row("serve-hot", 9.9))
	for _, tc := range []struct {
		name   string
		change string
		ok     bool
		err    string
	}{
		{"within the bound", writeResults(t, h, p50Row("serve-hot", 11)), true, ""},
		{"regression", writeResults(t, h, p50Row("serve-hot", 14)), false, ""},
		{"no metric matched", writeResults(t, h, p50Row("serve-churn", 10)), false, "no metric matched"},
		{"another host", writeResults(t, host{NProc: h.NProc + 1}, p50Row("serve-hot", 10)), false, "host records differ"},
	} {
		report, ok, err := compare("../BENCHMARK.json", parent, tc.change)
		if ok != tc.ok || (err == nil) != (tc.err == "") || (err != nil && !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%s: ok=%v err=%v, want ok=%v err containing %q\n%s", tc.name, ok, err, tc.ok, tc.err, report)
		}
	}
}

// TestSpread matches Python's statistics.quantiles(xs, n=4), which judges
// the benchmark's steadiness.
func TestSpread(t *testing.T) {
	// quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) is [2.75, 5.5, 8.25].
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
