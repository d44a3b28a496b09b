package opt

import (
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"magis/internal/cost"
	"magis/internal/fission"
	"magis/internal/fsatomic"
	"magis/internal/ftree"
	"magis/internal/graph"
	"magis/internal/graphio"
	"magis/internal/rules"
	"magis/internal/sched"
	"magis/internal/sim"
)

// Checkpointing makes long searches crash-safe. At every expansion
// boundary — the top of the search loop, where the state is a consistent
// prefix of the run — the loop encodes a snapshot of everything the
// order-sensitive half owns: the frontier heap (each state's logical
// graph, F-Tree, and schedule), the duplicate-filter digests, the best
// state, Stats, History, quarantine streaks, and diagnostics counters.
// Snapshots are flushed to disk atomically (temp file + fsync + rename)
// every EveryN expansions or Interval of wall-clock, and once more when
// the search exits.
//
// The crash-consistency argument: the search is deterministic for any
// worker count (see internal/opt/parallel.go), so replaying from a
// boundary snapshot re-derives exactly the expansions that followed it.
// A SIGKILL at an arbitrary point therefore loses at most the work since
// the last flush, and Resume(run-kill-resume) produces a bit-identical
// best graph, schedule, and cost to an uninterrupted run. Measurements
// that are not inputs to any search decision (wall-clock timers, history
// timestamps) are exempt from the bit-identical guarantee.
//
// Cost metrics of restored states (PeakMem, Latency, Hot) are not stored:
// they are recomputed from (EvalG, Sched) by the same deterministic
// simulators that produced them, which keeps floating-point values exact
// without relying on decimal round-tripping.

// CheckpointVersion is the on-disk snapshot format version. A mismatch is
// a hard Resume error: snapshots embed search internals and are not
// migrated across format changes.
const CheckpointVersion = 1

// checkpointMagic distinguishes checkpoint files from other JSON.
const checkpointMagic = "magis-checkpoint"

// Checkpoint configures crash-safe snapshots of a search. The zero value
// disables checkpointing; setting Path enables it.
type Checkpoint struct {
	// Path is the snapshot file. Writes replace it atomically, so the file
	// always holds the last complete snapshot.
	Path string
	// EveryN flushes a snapshot every N completed expansions (default 16).
	EveryN int
	// Interval additionally flushes when this much wall-clock has passed
	// since the last flush (0 disables the time trigger).
	Interval time.Duration
	// Label is free-form run metadata surfaced by ReadCheckpointInfo (the
	// CLI stores its workload/mode flags here).
	Label string
	// FS is the filesystem snapshots are written through; nil means the
	// real OS. It is runtime wiring, not run state — resuming a checkpoint
	// does not restore it, so Resume callers re-inject their FS via the
	// options override.
	FS fsatomic.FS
}

// CheckpointStatus reports a run's checkpointing activity.
type CheckpointStatus struct {
	// Path is the snapshot file written.
	Path string
	// Writes counts successful snapshot flushes.
	Writes int
	// LastBytes is the size of the last flushed snapshot.
	LastBytes int
	// Err records the first encode or write failure. Checkpointing
	// degrades to best-effort on failure; the search itself continues.
	Err string
}

// checkpointer owns the snapshot lifecycle of one search incarnation. It
// runs entirely on the search goroutine.
type checkpointer struct {
	cfg    Checkpoint
	status CheckpointStatus
	// last is the most recent boundary snapshot payload. It is kept in
	// memory so the final flush can publish a consistent boundary even
	// when the search is cancelled mid-expansion (whose live state is not
	// a valid resume point).
	last       []byte
	lastWrite  time.Time
	sinceWrite int
}

func newCheckpointer(cfg Checkpoint) *checkpointer {
	if cfg.EveryN <= 0 {
		cfg.EveryN = 16
	}
	return &checkpointer{
		cfg:       cfg,
		status:    CheckpointStatus{Path: cfg.Path},
		lastWrite: time.Now(),
	}
}

// boundary snapshots the loop at an expansion boundary and flushes on the
// configured cadence.
func (c *checkpointer) boundary(l *searchLoop) {
	buf, err := encodeSnapshot(l)
	if err != nil {
		c.fail(err)
		return
	}
	c.last = buf
	c.sinceWrite++
	if c.sinceWrite >= c.cfg.EveryN ||
		(c.cfg.Interval > 0 && time.Since(c.lastWrite) >= c.cfg.Interval) {
		c.flush()
	}
}

// final publishes the last consistent snapshot when the search exits. A
// tainted exit (cancelled mid-expansion) falls back to the pre-expansion
// boundary; any other exit re-snapshots the final state, so a drained or
// converged run resumes with zero replay.
func (c *checkpointer) final(l *searchLoop, tainted bool) {
	if !tainted {
		if buf, err := encodeSnapshot(l); err == nil {
			c.last = buf
		} else {
			c.fail(err)
		}
	}
	if c.last != nil {
		c.flush()
	}
}

func (c *checkpointer) flush() {
	env, err := sealSnapshot(c.last)
	if err != nil {
		c.fail(err)
		return
	}
	if err := fsatomic.WriteFileFS(c.cfg.FS, c.cfg.Path, env, 0o644); err != nil {
		c.fail(err)
		return
	}
	c.status.Writes++
	c.status.LastBytes = len(env)
	c.sinceWrite = 0
	c.lastWrite = time.Now()
}

func (c *checkpointer) fail(err error) {
	if c.status.Err == "" {
		c.status.Err = err.Error()
	}
}

// envelope is the checkpoint file framing: a version header plus a SHA-256
// digest of the payload bytes, verified before any payload field is
// trusted.
type envelope struct {
	Magic   string          `json:"magic"`
	Version int             `json:"version"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// sealSnapshot frames a payload with its checksum.
func sealSnapshot(payload []byte) ([]byte, error) {
	sum := sha256.Sum256(payload)
	return json.Marshal(envelope{
		Magic:   checkpointMagic,
		Version: CheckpointVersion,
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: payload,
	})
}

// openSnapshot validates the envelope and returns the payload bytes.
func openSnapshot(data []byte) ([]byte, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("opt: checkpoint: %w", err)
	}
	if env.Magic != checkpointMagic {
		return nil, fmt.Errorf("opt: checkpoint: not a checkpoint file (magic %q)", env.Magic)
	}
	if env.Version != CheckpointVersion {
		return nil, fmt.Errorf("opt: checkpoint: format version %d (this build reads version %d)", env.Version, CheckpointVersion)
	}
	sum := sha256.Sum256(env.Payload)
	if got := hex.EncodeToString(sum[:]); got != env.SHA256 {
		return nil, fmt.Errorf("opt: checkpoint: checksum mismatch (file %s, payload %s): truncated or corrupted snapshot", env.SHA256, got)
	}
	return env.Payload, nil
}

// snapshot is the checkpoint payload.
type snapshot struct {
	Label     string               `json:"label,omitempty"`
	ElapsedNs int64                `json:"elapsed_ns"`
	Options   optionsRec           `json:"options"`
	Input     *graphio.GraphRecord `json:"input"`
	Stats     Stats                `json:"stats"`
	History   []historyRec         `json:"history"`
	Seen      []uint64             `json:"seen"`
	Queue     []*stateRec          `json:"queue"`
	// BestIdx points the best state into Queue (preserving object identity
	// on restore); -1 means Best holds a state not on the frontier.
	BestIdx int       `json:"best_idx"`
	Best    *stateRec `json:"best,omitempty"`
	// BestPeakMem / BestLatencyBits duplicate the best state's headline
	// metrics for cheap inspection via ReadCheckpointInfo.
	BestPeakMem     int64                `json:"best_peak_mem"`
	BestLatencyBits uint64               `json:"best_latency_bits"`
	Quarantine      quarRec              `json:"quarantine"`
	Diags           map[string]*RuleDiag `json:"diags,omitempty"`
	Errors          []ruleErrRec         `json:"errors,omitempty"`
}

// optionsRec serializes Options. Floats are stored as IEEE-754 bits so
// limits round-trip exactly (LatencyLimit is +Inf in the default
// MemoryUnderLatency configuration, which plain JSON cannot carry).
type optionsRec struct {
	Mode             int      `json:"mode"`
	MemLimit         int64    `json:"mem_limit"`
	LatencyLimitBits uint64   `json:"latency_limit_bits"`
	MaxLevel         int      `json:"max_level"`
	MaxCandidates    int      `json:"max_candidates"`
	MaxSites         int      `json:"max_sites"`
	TimeBudgetNs     int64    `json:"time_budget_ns"`
	MemBudget        int64    `json:"mem_budget,omitempty"`
	MaxIterations    int      `json:"max_iterations"`
	DeltaBits        uint64   `json:"delta_bits"`
	CheckInvariants  bool     `json:"check_invariants"`
	QuarantineAfter  int      `json:"quarantine_after"`
	Workers          int      `json:"workers"`
	NaiveFission     bool     `json:"naive_fission,omitempty"`
	NaiveSchedRules  bool     `json:"naive_sched_rules,omitempty"`
	FullReschedule   bool     `json:"full_reschedule,omitempty"`
	StrictHash       bool     `json:"strict_hash,omitempty"`
	DisableFission   bool     `json:"disable_fission,omitempty"`
	Rules            []string `json:"rules"`
	CkEveryN         int      `json:"ck_every_n,omitempty"`
	CkIntervalNs     int64    `json:"ck_interval_ns,omitempty"`
	CkLabel          string   `json:"ck_label,omitempty"`
}

type historyRec struct {
	ElapsedNs   int64  `json:"elapsed_ns"`
	PeakMem     int64  `json:"peak_mem"`
	LatencyBits uint64 `json:"latency_bits"`
}

type quarRec struct {
	Streaks map[string]int `json:"streaks,omitempty"`
	Banned  []string       `json:"banned,omitempty"`
}

type ruleErrRec struct {
	Rule  string `json:"rule"`
	Site  string `json:"site"`
	Panic string `json:"panic"`
	Stack string `json:"stack,omitempty"`
}

// stateRec serializes one M-State: the logical graph (ID-exact), the
// F-Tree, and the schedule. EvalG, regions, PeakMem, Latency, and Hot are
// recomputed deterministically on restore.
type stateRec struct {
	G     *graphio.GraphRecord `json:"g"`
	FT    []*ftNodeRec         `json:"ft,omitempty"`
	Sched sched.Schedule       `json:"sched"`
	Stale bool                 `json:"stale,omitempty"`
}

// ftNodeRec serializes one F-Tree node with its resolved transformation.
type ftNodeRec struct {
	S          []graph.NodeID `json:"s"`
	ChoiceKeys []graph.NodeID `json:"ck,omitempty"`
	ChoiceVals []int          `json:"cv,omitempty"`
	TransN     int            `json:"tn"`
	N          int            `json:"n"`
	ScoreBits  uint64         `json:"score_bits"`
	Level      int            `json:"level"`
	Children   []*ftNodeRec   `json:"children,omitempty"`
}

func recordOptions(o *Options) optionsRec {
	names := make([]string, len(o.Rules))
	for i, r := range o.Rules {
		names[i] = r.Name()
	}
	return optionsRec{
		Mode:             int(o.Mode),
		MemLimit:         o.MemLimit,
		LatencyLimitBits: math.Float64bits(o.LatencyLimit),
		MaxLevel:         o.MaxLevel,
		MaxCandidates:    o.MaxCandidates,
		MaxSites:         o.MaxSites,
		TimeBudgetNs:     int64(o.TimeBudget),
		MemBudget:        o.MemBudget,
		MaxIterations:    o.MaxIterations,
		DeltaBits:        math.Float64bits(o.Delta),
		CheckInvariants:  o.CheckInvariants,
		QuarantineAfter:  o.QuarantineAfter,
		Workers:          o.Workers,
		NaiveFission:     o.NaiveFission,
		NaiveSchedRules:  o.NaiveSchedRules,
		FullReschedule:   o.FullReschedule,
		StrictHash:       o.StrictHash,
		DisableFission:   o.DisableFission,
		Rules:            names,
		CkEveryN:         o.Checkpoint.EveryN,
		CkIntervalNs:     int64(o.Checkpoint.Interval),
		CkLabel:          o.Checkpoint.Label,
	}
}

func (r optionsRec) restore() (Options, error) {
	catalog := make(map[string]rules.Rule)
	for _, rl := range rules.All() {
		catalog[rl.Name()] = rl
	}
	rs := make([]rules.Rule, len(r.Rules))
	for i, name := range r.Rules {
		rl, ok := catalog[name]
		if !ok {
			return Options{}, fmt.Errorf("opt: checkpoint references rule %q not in this build's catalog", name)
		}
		rs[i] = rl
	}
	return Options{
		Mode:            Mode(r.Mode),
		MemLimit:        r.MemLimit,
		LatencyLimit:    math.Float64frombits(r.LatencyLimitBits),
		MaxLevel:        r.MaxLevel,
		MaxCandidates:   r.MaxCandidates,
		MaxSites:        r.MaxSites,
		TimeBudget:      time.Duration(r.TimeBudgetNs),
		MemBudget:       r.MemBudget,
		MaxIterations:   r.MaxIterations,
		Delta:           math.Float64frombits(r.DeltaBits),
		CheckInvariants: r.CheckInvariants,
		QuarantineAfter: r.QuarantineAfter,
		Workers:         r.Workers,
		NaiveFission:    r.NaiveFission,
		NaiveSchedRules: r.NaiveSchedRules,
		FullReschedule:  r.FullReschedule,
		StrictHash:      r.StrictHash,
		DisableFission:  r.DisableFission,
		Rules:           rs,
		Checkpoint: Checkpoint{
			EveryN:   r.CkEveryN,
			Interval: time.Duration(r.CkIntervalNs),
			Label:    r.CkLabel,
		},
	}, nil
}

func recordTree(t *ftree.Tree) []*ftNodeRec {
	if t == nil {
		return nil
	}
	var rec func(n *ftree.Node) *ftNodeRec
	rec = func(n *ftree.Node) *ftNodeRec {
		r := &ftNodeRec{
			S:         n.T.S.Slice(),
			TransN:    n.T.N,
			N:         n.N,
			ScoreBits: math.Float64bits(n.Score),
			Level:     n.Level,
		}
		keys := make([]graph.NodeID, 0, len(n.T.Choice))
		for k := range n.T.Choice {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			r.ChoiceKeys = append(r.ChoiceKeys, k)
			r.ChoiceVals = append(r.ChoiceVals, n.T.Choice[k])
		}
		for _, c := range n.Children {
			r.Children = append(r.Children, rec(c))
		}
		return r
	}
	out := make([]*ftNodeRec, 0, len(t.Roots))
	for _, root := range t.Roots {
		out = append(out, rec(root))
	}
	return out
}

func restoreTree(recs []*ftNodeRec) (*ftree.Tree, error) {
	var rec func(r *ftNodeRec, parent *ftree.Node) (*ftree.Node, error)
	rec = func(r *ftNodeRec, parent *ftree.Node) (*ftree.Node, error) {
		if len(r.ChoiceKeys) != len(r.ChoiceVals) {
			return nil, fmt.Errorf("opt: checkpoint: F-Tree node has %d choice keys but %d values", len(r.ChoiceKeys), len(r.ChoiceVals))
		}
		tr := &fission.Trans{S: graph.NewSet(r.S...), Choice: make(map[graph.NodeID]int, len(r.ChoiceKeys)), N: r.TransN}
		for i, k := range r.ChoiceKeys {
			tr.Choice[k] = r.ChoiceVals[i]
		}
		n := &ftree.Node{
			T:      tr,
			N:      r.N,
			Score:  math.Float64frombits(r.ScoreBits),
			Level:  r.Level,
			Parent: parent,
		}
		for _, c := range r.Children {
			cn, err := rec(c, n)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, cn)
		}
		return n, nil
	}
	t := &ftree.Tree{}
	for _, r := range recs {
		n, err := rec(r, nil)
		if err != nil {
			return nil, err
		}
		t.Roots = append(t.Roots, n)
	}
	return t, nil
}

func recordState(s *State) (*stateRec, error) {
	g, err := graphio.Record(s.G)
	if err != nil {
		return nil, err
	}
	return &stateRec{
		G:     g,
		FT:    recordTree(s.FT),
		Sched: append(sched.Schedule(nil), s.Sched...),
		Stale: s.stale,
	}, nil
}

// restoreState rebuilds a State and recomputes its derived fields (EvalG,
// regions, PeakMem, Hot, Latency) with the same deterministic pipeline
// that produced them, using ev's scratch buffers without touching its
// stats counters.
func restoreState(rec *stateRec, ev *evaluator) (*State, error) {
	g, err := rec.G.Restore()
	if err != nil {
		return nil, err
	}
	ft, err := restoreTree(rec.FT)
	if err != nil {
		return nil, err
	}
	s := &State{G: g, FT: ft, stale: rec.Stale}
	if err := guard("checkpoint", "state collapse", func() error {
		eg, regions, err := ev.col.Collapse(s.G, s.FT)
		s.EvalG, s.regions = eg, regions
		return err
	}); err != nil {
		return nil, fmt.Errorf("opt: checkpoint: state collapse: %w", err)
	}
	s.Sched = append(sched.Schedule(nil), rec.Sched...)
	prof := ev.ss.Simulate(s.EvalG, s.Sched)
	s.PeakMem = prof.Peak
	s.Hot = prof.Hotspots
	r := sim.Run(s.EvalG, s.Sched, sim.Config{Model: ev.model, NodeCost: regionNodeCost})
	s.Latency = r.Latency
	return s, nil
}

// encodeSnapshot serializes the loop at an expansion boundary. Worker
// stats shards are folded into the recorded Stats (the live shards stay
// untouched for the continuing run).
func encodeSnapshot(l *searchLoop) ([]byte, error) {
	input, err := graphio.Record(l.input)
	if err != nil {
		return nil, err
	}
	stats := l.res.Stats
	for i := 1; i < len(l.pool.shards); i++ {
		stats.add(&l.pool.shards[i])
	}
	snap := snapshot{
		Label:     l.o.Checkpoint.Label,
		ElapsedNs: int64(l.elapsed()),
		Options:   recordOptions(l.o),
		Input:     input,
		Stats:     stats,
		BestIdx:   -1,
	}
	for _, h := range l.res.History {
		snap.History = append(snap.History, historyRec{
			ElapsedNs:   int64(h.Elapsed),
			PeakMem:     h.PeakMem,
			LatencyBits: math.Float64bits(h.Latency),
		})
	}
	snap.Seen = make([]uint64, 0, len(l.seen))
	for h := range l.seen {
		snap.Seen = append(snap.Seen, h)
	}
	sort.Slice(snap.Seen, func(i, j int) bool { return snap.Seen[i] < snap.Seen[j] })
	for i, s := range l.q.items {
		r, err := recordState(s)
		if err != nil {
			return nil, err
		}
		snap.Queue = append(snap.Queue, r)
		if s == l.best {
			snap.BestIdx = i
		}
	}
	if snap.BestIdx < 0 {
		r, err := recordState(l.best)
		if err != nil {
			return nil, err
		}
		snap.Best = r
	}
	snap.BestPeakMem = l.best.PeakMem
	snap.BestLatencyBits = math.Float64bits(l.best.Latency)
	snap.Quarantine = quarRec{Streaks: l.quar.streak}
	for name := range l.quar.banned {
		snap.Quarantine.Banned = append(snap.Quarantine.Banned, name)
	}
	sort.Strings(snap.Quarantine.Banned)
	snap.Diags = l.res.Diagnostics.Rules
	for _, re := range l.res.Diagnostics.Errors {
		snap.Errors = append(snap.Errors, ruleErrRec{
			Rule:  re.Rule,
			Site:  re.Site,
			Panic: fmt.Sprint(re.Panic),
			Stack: re.Stack,
		})
	}
	return json.Marshal(snap)
}

// Resume continues a checkpointed search from path. The snapshot's options
// (including the checkpoint configuration, re-pointed at path) are
// restored; override, when non-nil, may adjust them before the run — e.g.
// a service re-attaching its OnExpansion watchdog hook, or a test raising
// MaxIterations. The search continues under the remaining TimeBudget:
// total budget minus the wall-clock already consumed before the snapshot.
//
// Because the search is deterministic and snapshots are taken at expansion
// boundaries, run-kill-resume produces the same best graph, schedule, and
// cost as an uninterrupted run (wall-clock-derived fields aside).
func Resume(ctx context.Context, path string, model *cost.Model, override func(*Options)) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("opt: checkpoint: %w", err)
	}
	payload, err := openSnapshot(data)
	if err != nil {
		return nil, err
	}
	var snap snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("opt: checkpoint: %w", err)
	}
	o, err := snap.Options.restore()
	if err != nil {
		return nil, err
	}
	o.Checkpoint.Path = path
	if override != nil {
		override(&o)
	}
	o.defaults()
	input, err := snap.Input.Restore()
	if err != nil {
		return nil, fmt.Errorf("opt: checkpoint: input graph: %w", err)
	}

	res := &Result{}
	if err := guard("init", "baseline evaluation", func() error {
		res.Baseline = Baseline(input, model)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInitialEval, err)
	}
	pool := newEvalPool(o.Workers, model, o.FullReschedule, o.StrictHash, &res.Stats)
	ev := pool.primary()
	res.Stats = snap.Stats
	for _, h := range snap.History {
		res.History = append(res.History, HistoryPoint{
			Elapsed: time.Duration(h.ElapsedNs),
			PeakMem: h.PeakMem,
			Latency: math.Float64frombits(h.LatencyBits),
		})
	}
	res.Diagnostics.Rules = snap.Diags
	for _, e := range snap.Errors {
		res.Diagnostics.Errors = append(res.Diagnostics.Errors, &RuleError{
			Rule: e.Rule, Site: e.Site, Panic: e.Panic, Stack: e.Stack,
		})
	}
	quar := newQuarantine(o.QuarantineAfter)
	for name, n := range snap.Quarantine.Streaks {
		quar.streak[name] = n
	}
	for _, name := range snap.Quarantine.Banned {
		quar.banned[name] = true
	}

	q := &stateQueue{opts: &o}
	var best *State
	for i, r := range snap.Queue {
		s, err := restoreState(r, ev)
		if err != nil {
			return nil, err
		}
		q.items = append(q.items, s)
		if i == snap.BestIdx {
			best = s
		}
	}
	if best == nil {
		if snap.Best == nil {
			return nil, fmt.Errorf("opt: checkpoint: snapshot has no best state")
		}
		if best, err = restoreState(snap.Best, ev); err != nil {
			return nil, err
		}
	}
	seen := make(map[uint64]bool, len(snap.Seen))
	for _, h := range snap.Seen {
		seen[h] = true
	}

	l := &searchLoop{
		o:     &o,
		res:   res,
		quar:  quar,
		seen:  seen,
		q:     q, // items are in heap order already; pops replay identically
		best:  best,
		start: time.Now(),
		prior: time.Duration(snap.ElapsedNs),
		input: input,
		model: model,
		pool:  pool,
		gp:    &ev.gp,
		ftOpts: ftree.Options{
			MaxLevel:      o.MaxLevel,
			MaxCandidates: o.MaxCandidates,
			NaiveFission:  o.NaiveFission,
		},
	}
	heap.Init(l.q) // no-op on the already-valid heap; guards a hand-edited file
	l.run(ctx)
	return res, nil
}

// CheckpointInfo is the cheap, state-free view of a checkpoint file.
type CheckpointInfo struct {
	// Label is the run metadata stored via Checkpoint.Label.
	Label string
	// Elapsed is the search wall-clock consumed before the snapshot.
	Elapsed time.Duration
	// Iterations is the number of completed expansions.
	Iterations int
	// Frontier is the number of states on the snapshot's queue.
	Frontier int
	// BestPeakMem / BestLatency are the snapshot's best-state metrics.
	BestPeakMem int64
	BestLatency float64
	// Workers and Mode echo the snapshotted search options.
	Workers int
	Mode    Mode
}

// ReadCheckpointInfo validates a checkpoint file's envelope and returns
// its headline metadata without restoring any search state.
func ReadCheckpointInfo(path string) (*CheckpointInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("opt: checkpoint: %w", err)
	}
	payload, err := openSnapshot(data)
	if err != nil {
		return nil, err
	}
	var snap struct {
		Label     string     `json:"label"`
		ElapsedNs int64      `json:"elapsed_ns"`
		Options   optionsRec `json:"options"`
		Stats     struct {
			Iterations int `json:"Iterations"`
		} `json:"stats"`
		Queue           []json.RawMessage `json:"queue"`
		BestPeakMem     int64             `json:"best_peak_mem"`
		BestLatencyBits uint64            `json:"best_latency_bits"`
	}
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("opt: checkpoint: %w", err)
	}
	return &CheckpointInfo{
		Label:       snap.Label,
		Elapsed:     time.Duration(snap.ElapsedNs),
		Iterations:  snap.Stats.Iterations,
		Frontier:    len(snap.Queue),
		BestPeakMem: snap.BestPeakMem,
		BestLatency: math.Float64frombits(snap.BestLatencyBits),
		Workers:     snap.Options.Workers,
		Mode:        Mode(snap.Options.Mode),
	}, nil
}
