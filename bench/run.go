package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// config is the settings of one run.
type config struct {
	workload string
	seed     int64
	// window is how long the run measures.
	window time.Duration
	// trace records spans and reports the per-layer metrics instead of the
	// end-to-end ones.
	trace bool
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
}

// run is one workload run in progress: its checks, its metrics and, when
// traced, its spans.
type run struct {
	cfg       config
	rec       *recorder // nil when untraced
	attempted int
	failed    int
	problems  []string
	metrics   []metric
	// builds are the durations of the model-graph builds made during
	// set-up, the source of models.build_ms.
	builds []time.Duration
}

// op records one attempted operation (a search, a request, an invariant)
// and whether it failed.
func (r *run) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
		return false
	}
	return true
}

// check is op for a condition.
func (r *run) check(ok bool, format string, args ...any) bool {
	if ok {
		return r.op(nil)
	}
	return r.op(fmt.Errorf(format, args...))
}

func (r *run) put(ms ...metric) { r.metrics = append(r.metrics, ms...) }

// setup runs build r.cfg.setups times and reports the median duration as
// setup_s. Every set-up but the last is torn down, outside the timing; the
// last one is what the run measures.
func (r *run) setup(build func(parent int64) (teardown func(), err error)) error {
	var took []float64
	for i := 0; i < r.cfg.setups; i++ {
		id := r.rec.id()
		start := time.Now()
		teardown, err := build(id)
		end := time.Now()
		r.rec.add(id, 0, id, "setup", start, end)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		took = append(took, end.Sub(start).Seconds())
		if i < r.cfg.setups-1 && teardown != nil {
			teardown()
		}
	}
	if !r.cfg.trace {
		r.put(sampled("setup_s", "s", took, 0.5))
	}
	return nil
}

// build times one model-graph construction for models.build_ms.
func (r *run) build(parent int64, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	r.rec.add(r.rec.id(), parent, parent, "models.build", start, end)
	r.builds = append(r.builds, end.Sub(start))
}

// probe calls fn reps times, each under its own span, and returns the
// median duration.
func (r *run) probe(name string, reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		id := r.rec.id()
		start := time.Now()
		fn()
		end := time.Now()
		r.rec.add(id, 0, id, name, start, end)
		ds[i] = float64(end.Sub(start))
	}
	return time.Duration(quantile(ds, 0.5))
}

// metric is one reported number. One that summarizes samples carries their
// count and quartiles; an exact number has n = 1 and q1 = q3 = value.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

func exact(name, unit string, v float64) metric {
	return metric{Name: name, Unit: unit, Value: v, N: 1, Q1: v, Q3: v}
}

// sampled summarizes xs by their p-quantile. With no samples the value is
// 0 and n is 0.
func sampled(name, unit string, xs []float64, p float64) metric {
	if len(xs) == 0 {
		return metric{Name: name, Unit: unit}
	}
	return metric{Name: name, Unit: unit, Value: quantile(xs, p), N: len(xs),
		Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75)}
}

// quantile is the p-quantile of xs, interpolating linearly between closest
// ranks. xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

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

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// in converts durations to float64 counts of unit (time.Millisecond for
// milliseconds).
func in(unit time.Duration, ds ...time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// span is one traced interval. Times are nanoseconds since the run began;
// spans of one search or one request share trace_id, the id of its root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay for no spans.
type recorder struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// id reserves a span id, so children can name a parent that ends later.
func (rec *recorder) id() int64 {
	if rec == nil {
		return 0
	}
	return rec.next.Add(1)
}

func (rec *recorder) add(id, parent, trace int64, name string, start, end time.Time) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.spans = append(rec.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(rec.t0).Nanoseconds(), End: end.Sub(rec.t0).Nanoseconds()})
}

// host records what a result was measured on, so results from different
// machines are never compared.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	TempFS     string `json:"temp_fs"`
}

func hostRecord() host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		TempFS:     fsType(os.TempDir()),
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

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch int64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
