// Package plancache is the self-healing persistent plan cache in front of
// the optimization service: optimized plans that passed numeric
// verification are persisted, keyed by the input graph's structural hash
// plus a device/budget fingerprint, and served back to identical requests
// without re-running the search.
//
// Safety comes before hit rate, in three layers:
//
//   - Admission gating: Put re-materializes the plan and runs the
//     internal/verify pipeline against the input graph. A plan that fails
//     verification never enters the cache, so a hit never needs to re-prove
//     correctness at serve time.
//   - Tamper evidence: entries are sealed envelopes (internal/fsatomic)
//     with a magic string, format version, and SHA-256 digest, written
//     atomically. Any entry that fails to read back — truncated, bit-
//     flipped, wrong version, renamed to a different key — is moved to a
//     quarantine directory and the lookup degrades to a miss.
//   - Collision immunity: the WL hash is a filter, not the proof. Every hit
//     re-compares the full canonical encoding of the request graph against
//     the entry's recorded input; a forced or accidental hash collision
//     degrades to a miss, never to serving a plan for a different graph.
//
// Near misses — same topology on the same device at a different shape or
// budget — are surfaced separately (Near) so the caller can warm-start a
// fresh search from the cached plan instead of starting cold.
package plancache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"magis/internal/cost"
	"magis/internal/fsatomic"
	"magis/internal/ftree"
	"magis/internal/graph"
	"magis/internal/opt"
	"magis/internal/verify"
)

const (
	// Magic and Version frame every cache entry on disk.
	Magic   = "magis-plan"
	Version = 1
	// suffix is the cache entry filename extension.
	suffix = ".plan"
)

// ErrRejected marks a Put whose plan failed the verification gate.
var ErrRejected = errors.New("plancache: plan failed verification, not admitted")

// ErrStorage marks a Put that passed verification but could not be
// persisted (full disk, failed rename, fd exhaustion). The cache on disk
// is untouched; servers treat this as a storage-health signal, distinct
// from a rejected plan. Check fsatomic.Transient(err) to decide between
// retry and degrade.
var ErrStorage = errors.New("plancache: storage failure")

// Fingerprint captures everything besides the input graph that a plan's
// validity or quality depends on: the device it was costed for and the
// search configuration that produced it. Two requests with equal graphs
// but different fingerprints must not share an exact cache entry (a plan
// tuned for a 24 GiB budget is not the answer to an 8 GiB one).
type Fingerprint struct {
	Device           string `json:"device"`
	Mode             int    `json:"mode"`
	MemLimit         int64  `json:"mem_limit,omitempty"`
	LatencyLimitBits uint64 `json:"latency_limit_bits,omitempty"`
	BudgetNs         int64  `json:"budget_ns,omitempty"`
	MaxIterations    int    `json:"max_iterations,omitempty"`
	// MemBudget is the search's soft RSS budget: a governed search can
	// shed frontier states and knobs, so its plan must not answer an
	// ungoverned request (omitempty keeps pre-governor keys stable).
	MemBudget int64 `json:"mem_budget,omitempty"`
}

// FingerprintFor derives the Fingerprint of a request from its cost model
// and search options.
func FingerprintFor(model *cost.Model, o opt.Options) Fingerprint {
	fp := Fingerprint{
		Mode:          int(o.Mode),
		MemLimit:      o.MemLimit,
		BudgetNs:      int64(o.TimeBudget),
		MaxIterations: o.MaxIterations,
		MemBudget:     o.MemBudget,
	}
	if o.LatencyLimit != 0 {
		fp.LatencyLimitBits = math.Float64bits(o.LatencyLimit)
	}
	if model != nil && model.Dev != nil {
		fp.Device = DeviceString(model.Dev)
	}
	return fp
}

// DeviceString renders a device's cost-relevant characteristics into a
// stable identity string. Two devices with the same name but different
// capacities (or a re-tuned cost model) fingerprint differently, so plans
// never leak across hardware revisions.
func DeviceString(d *cost.Device) string {
	return fmt.Sprintf("%s|f%x|m%x|h%x|l%x|c%d|oe%x|ob%x",
		d.Name, math.Float64bits(d.PeakFLOPS), math.Float64bits(d.MemBW),
		math.Float64bits(d.HostBW), math.Float64bits(d.Launch),
		d.Capacity, math.Float64bits(d.OccElems), math.Float64bits(d.OccBytes))
}

// hash64 folds s into an FNV-1a digest seeded by h.
func hash64(h uint64, s string) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// hash returns the fingerprint's 64-bit digest (part of the entry key).
func (f Fingerprint) hash() uint64 {
	b, _ := json.Marshal(f)
	return hash64(0, string(b))
}

// Config configures Open.
type Config struct {
	// Dir is the cache directory; it (and its quarantine subdirectory)
	// are created if absent.
	Dir string
	// Logf receives diagnostic output (default: discard).
	Logf func(format string, args ...any)
	// MaxEntries bounds the cache; the oldest entries are evicted past it
	// (default 4096).
	MaxEntries int
	// MaxQuarantine bounds the quarantine subdirectory; the oldest
	// quarantined files are removed past it so a junk-flood cannot fill
	// the disk (default 64).
	MaxQuarantine int
	// VerifySeed seeds the admission-gate verification inputs (default 1).
	VerifySeed uint64
	// FS is the filesystem the cache persists through; nil means the real
	// OS. Chaos tests inject storage faults here (internal/errfs).
	FS fsatomic.FS
	// HashFunc overrides the structural hash used in entry keys. It
	// exists so tests can force key collisions and prove lookups degrade
	// to misses; production callers leave it nil (graph.WLHash).
	HashFunc func(*graph.Graph) uint64
}

// Stats is a point-in-time snapshot of cache counters.
type Stats struct {
	Entries     int   `json:"entries"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	NearHits    int64 `json:"near_hits"`
	Puts        int64 `json:"puts"`
	PutRejected int64 `json:"put_rejected"`
	PutErrors   int64 `json:"put_errors"`
	Quarantined int64 `json:"quarantined"`
	// QuarantineEvicted counts quarantined files removed by the oldest-
	// first sweep that caps quarantine/ growth.
	QuarantineEvicted int64 `json:"quarantine_evicted"`
	Collisions        int64 `json:"collisions"`
	Evictions         int64 `json:"evictions"`
	// FlightsShared counts lookups that joined another request's
	// in-flight search instead of starting their own.
	FlightsShared int64 `json:"flights_shared"`
}

// meta is the in-memory index entry for one on-disk plan.
type meta struct {
	key     string
	topoKey uint64
	added   int64 // unix nanos, eviction order
}

// Cache is a persistent, verification-gated plan cache. All methods are
// safe for concurrent use.
type Cache struct {
	dir           string
	qdir          string
	logf          func(string, ...any)
	maxEntries    int
	maxQuarantine int
	verifySeed    uint64
	hashFn        func(*graph.Graph) uint64
	fsys          fsatomic.FS

	mu      sync.Mutex
	entries map[string]*meta
	topo    map[uint64][]string // topoKey -> entry keys

	fmu     sync.Mutex
	flights map[string]*Flight

	hits, misses, nearHits       atomic.Int64
	puts, putRejected, putErrors atomic.Int64
	quarantined, collisions      atomic.Int64
	evictions, flightsShared     atomic.Int64
	quarantineEvicted            atomic.Int64
}

// entryPayload is the sealed JSON payload of one cache entry.
type entryPayload struct {
	// Key echoes the entry's filename stem. A file renamed to another
	// key — the cheapest way to make the cache lie — fails this check
	// and is quarantined.
	Key         string      `json:"key"`
	WL          uint64      `json:"wl"`
	TopoHash    uint64      `json:"topo"`
	Fingerprint Fingerprint `json:"fp"`
	// Canon is the canonical encoding of the input graph the plan was
	// recorded for; every hit re-compares it against the request.
	Canon json.RawMessage `json:"canon"`
	Plan  *opt.PlanRecord `json:"plan"`
	// PeakMem/LatencyBits are the verified plan's evaluated metrics, so
	// a hit can answer without re-evaluating.
	PeakMem     int64  `json:"peak_mem"`
	LatencyBits uint64 `json:"latency_bits"`
	Verified    bool   `json:"verified"`
}

// Open opens (creating if needed) the cache at cfg.Dir and runs the
// startup scan: every entry is read back through its sealed envelope, and
// entries that are unreadable, checksum-failing, version-mismatched, or
// mis-keyed are moved to the quarantine subdirectory. Open never fails
// because of a bad entry — only because the directory itself is unusable.
func Open(cfg Config) (*Cache, error) {
	if cfg.Dir == "" {
		return nil, errors.New("plancache: empty cache dir")
	}
	c := &Cache{
		dir:           cfg.Dir,
		qdir:          filepath.Join(cfg.Dir, fsatomic.QuarantineDir),
		logf:          cfg.Logf,
		maxEntries:    cfg.MaxEntries,
		maxQuarantine: cfg.MaxQuarantine,
		verifySeed:    cfg.VerifySeed,
		hashFn:        cfg.HashFunc,
		fsys:          fsatomic.Or(cfg.FS),
		entries:       make(map[string]*meta),
		topo:          make(map[uint64][]string),
		flights:       make(map[string]*Flight),
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	if c.maxEntries <= 0 {
		c.maxEntries = 4096
	}
	if c.maxQuarantine <= 0 {
		c.maxQuarantine = 64
	}
	if c.verifySeed == 0 {
		c.verifySeed = 1
	}
	if c.hashFn == nil {
		c.hashFn = (*graph.Graph).WLHash
	}
	if err := c.fsys.MkdirAll(c.qdir, 0o755); err != nil {
		return nil, fmt.Errorf("plancache: %w", err)
	}
	// Clear atomic-write debris a crashed or fault-interrupted writer left
	// behind before indexing, so temp files never accumulate across runs.
	if n := fsatomic.SweepTemps(c.fsys, c.dir); n > 0 {
		c.logf("plancache: swept %d orphaned temp file(s)", n)
	}
	c.scan()
	c.pruneQuarantine()
	return c, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// QuarantinePath returns the quarantine directory.
func (c *Cache) QuarantinePath() string { return c.qdir }

// Len returns the number of healthy indexed entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Entries:           c.Len(),
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		NearHits:          c.nearHits.Load(),
		Puts:              c.puts.Load(),
		PutRejected:       c.putRejected.Load(),
		PutErrors:         c.putErrors.Load(),
		Quarantined:       c.quarantined.Load(),
		QuarantineEvicted: c.quarantineEvicted.Load(),
		Collisions:        c.collisions.Load(),
		Evictions:         c.evictions.Load(),
		FlightsShared:     c.flightsShared.Load(),
	}
}

// Key returns the cache key for a request: the structural hash of its
// graph joined with the fingerprint digest.
func (c *Cache) Key(g *graph.Graph, fp Fingerprint) string {
	return KeyFromHashes(c.hashFn(g), fp)
}

// KeyFromHashes builds a cache key from a precomputed structural hash.
// Callers that probe the cache repeatedly for the same workload (the
// serving admission path) hash the graph once and reuse it.
func KeyFromHashes(wl uint64, fp Fingerprint) string {
	return fmt.Sprintf("%016x-%016x", wl, fp.hash())
}

// scan indexes every healthy entry and quarantines the rest.
func (c *Cache) scan() {
	ents, err := c.fsys.ReadDir(c.dir)
	if err != nil {
		c.logf("plancache: scan: %v", err)
		return
	}
	healthy := 0
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		p, err := c.load(filepath.Join(c.dir, e.Name()))
		if err != nil {
			c.quarantine(e.Name(), err)
			continue
		}
		added := time.Now().UnixNano()
		if info, ierr := e.Info(); ierr == nil {
			added = info.ModTime().UnixNano()
		}
		c.index(p, added)
		healthy++
	}
	if s := c.quarantined.Load(); s > 0 || healthy > 0 {
		c.logf("plancache: opened %s: %d entries indexed, %d quarantined", c.dir, healthy, s)
	}
}

// load reads and vets one entry file without touching the index.
func (c *Cache) load(path string) (*entryPayload, error) {
	raw, err := fsatomic.ReadSealedFS(c.fsys, path, Magic, Version)
	if err != nil {
		return nil, err
	}
	var p entryPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("plancache: %s: %w", filepath.Base(path), err)
	}
	if want := strings.TrimSuffix(filepath.Base(path), suffix); p.Key != want {
		return nil, fmt.Errorf("plancache: %s: entry key %q does not match filename", filepath.Base(path), p.Key)
	}
	if !p.Verified || p.Plan == nil || len(p.Canon) == 0 {
		return nil, fmt.Errorf("plancache: %s: unverified or incomplete entry", filepath.Base(path))
	}
	return &p, nil
}

// index adds a vetted entry to the in-memory maps. Caller must not hold c.mu.
func (c *Cache) index(p *entryPayload, added int64) {
	tk := topoIndexKey(p.TopoHash, p.Fingerprint.Device)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[p.Key]; ok {
		return
	}
	c.entries[p.Key] = &meta{key: p.Key, topoKey: tk, added: added}
	c.topo[tk] = append(c.topo[tk], p.Key)
}

// drop removes key from the in-memory maps. Caller must not hold c.mu.
func (c *Cache) drop(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.entries[key]
	if !ok {
		return
	}
	delete(c.entries, key)
	keys := c.topo[m.topoKey]
	for i, k := range keys {
		if k == key {
			c.topo[m.topoKey] = append(keys[:i], keys[i+1:]...)
			break
		}
	}
	if len(c.topo[m.topoKey]) == 0 {
		delete(c.topo, m.topoKey)
	}
}

// quarantine moves an untrusted entry file aside and logs why; a file
// that cannot be moved is removed instead. The quarantine is then capped
// at MaxQuarantine files, oldest first: it exists for operator
// inspection, not as an archive — under a junk-flood (an attacker or a
// bad deploy writing corrupt entries in a loop) an unbounded quarantine
// would fill the disk and take the healthy cache down with it.
func (c *Cache) quarantine(name string, cause error) {
	c.quarantined.Add(1)
	dst, err := fsatomic.Quarantine(c.fsys, c.dir, name)
	if err != nil {
		c.logf("plancache: quarantine %s failed (%v); removing (cause: %v)", name, err, cause)
		c.fsys.Remove(filepath.Join(c.dir, name))
		return
	}
	c.logf("plancache: quarantined %s -> %s: %v", name, dst, cause)
	c.pruneQuarantine()
}

func (c *Cache) pruneQuarantine() {
	// Best effort: a file it cannot remove is tried again on the next
	// quarantine or open.
	removed, _ := fsatomic.Prune(c.fsys, c.qdir, nil, c.maxQuarantine, 0)
	c.quarantineEvicted.Add(int64(len(removed)))
}

// Hit is a successful exact lookup: a verified plan recorded for a
// byte-identical canonical graph under the same fingerprint.
type Hit struct {
	Key     string
	Plan    *opt.PlanRecord
	PeakMem int64
	Latency float64
}

// Get looks up an exact entry for (g, fp). The WL-keyed index is only the
// first filter; the entry's recorded canonical graph is compared in full
// against g, so a hash collision returns (nil, false) — a miss — rather
// than a wrong plan. Entries that fail to read back are quarantined on
// the spot and also degrade to a miss.
func (c *Cache) Get(g *graph.Graph, fp Fingerprint) (*Hit, bool) {
	key := c.Key(g, fp)
	c.mu.Lock()
	_, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	p, err := c.load(filepath.Join(c.dir, key+suffix))
	if err != nil {
		c.drop(key)
		c.quarantine(key+suffix, err)
		c.misses.Add(1)
		return nil, false
	}
	canon, err := canonicalBytes(g)
	if err != nil {
		c.logf("plancache: canonical encoding: %v", err)
		c.misses.Add(1)
		return nil, false
	}
	if !bytes.Equal(canon, p.Canon) || p.Fingerprint != fp {
		// Key collision: same 128-bit key, different request. Serving
		// would be wrong; a miss is merely slow.
		c.collisions.Add(1)
		c.misses.Add(1)
		c.logf("plancache: key %s collided (graphs differ); degrading to miss", key)
		return nil, false
	}
	c.hits.Add(1)
	return &Hit{
		Key:     key,
		Plan:    p.Plan,
		PeakMem: p.PeakMem,
		Latency: math.Float64frombits(p.LatencyBits),
	}, true
}

// NearHit is a same-topology entry usable as a warm-start seed.
type NearHit struct {
	Key  string
	Plan *opt.PlanRecord
	// SameGraph reports that the entry's input graph is byte-identical
	// to the request (only the fingerprint differed — e.g. another
	// budget). The full plan, graph rewrites included, replays soundly;
	// otherwise only the shape-independent fission state should.
	SameGraph bool
}

// nearProbeLimit caps how many candidate entries one Near call reads back
// from disk.
const nearProbeLimit = 8

// Near returns up to two warm-start candidates for (g, fp): entries
// sharing g's topology fingerprint (operator structure, ranks, dtypes —
// not dimension sizes) on the same device. A SameGraph candidate is
// preferred. Unreadable candidates are quarantined and skipped.
func (c *Cache) Near(g *graph.Graph, fp Fingerprint) []NearHit {
	exact := c.Key(g, fp)
	tk := topoIndexKey(topoHash(g), fp.Device)
	c.mu.Lock()
	keys := append([]string(nil), c.topo[tk]...)
	c.mu.Unlock()
	canon, err := canonicalBytes(g)
	if err != nil {
		return nil
	}
	var same, near *NearHit
	probed := 0
	// Newest entries first: recent plans reflect the current workload mix.
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	for _, key := range keys {
		if key == exact || probed >= nearProbeLimit {
			continue
		}
		probed++
		p, err := c.load(filepath.Join(c.dir, key+suffix))
		if err != nil {
			c.drop(key)
			c.quarantine(key+suffix, err)
			continue
		}
		h := &NearHit{Key: key, Plan: p.Plan, SameGraph: bytes.Equal(canon, p.Canon)}
		if h.SameGraph {
			if same == nil {
				same = h
			}
		} else if near == nil {
			near = h
		}
		if same != nil && near != nil {
			break
		}
	}
	var out []NearHit
	if same != nil {
		out = append(out, *same)
	}
	if near != nil {
		out = append(out, *near)
	}
	if len(out) > 0 {
		c.nearHits.Add(1)
	}
	return out
}

// Put admits a search result into the cache — if it survives the
// verification gate. The plan is re-materialized and checked against the
// input graph with internal/verify; a failing report returns ErrRejected
// and writes nothing. The entry is written atomically through a sealed
// envelope, then indexed; the oldest entries are evicted past MaxEntries.
func (c *Cache) Put(input *graph.Graph, fp Fingerprint, best *opt.State) error {
	if input == nil || best == nil || best.G == nil {
		return errors.New("plancache: nothing to admit")
	}
	ft := best.FT
	if ft == nil {
		ft = &ftree.Tree{}
	}
	mg, err := ft.Materialize(best.G)
	if err != nil {
		c.putErrors.Add(1)
		return fmt.Errorf("plancache: materialize: %w", err)
	}
	rep := verify.Check(input, mg, c.verifySeed)
	if !rep.OK() {
		c.putRejected.Add(1)
		return fmt.Errorf("%w: %s", ErrRejected, strings.TrimSpace(rep.String()))
	}
	plan, err := opt.RecordPlan(best)
	if err != nil {
		c.putErrors.Add(1)
		return fmt.Errorf("plancache: %w", err)
	}
	canon, err := canonicalBytes(input)
	if err != nil {
		c.putErrors.Add(1)
		return fmt.Errorf("plancache: %w", err)
	}
	key := c.Key(input, fp)
	p := &entryPayload{
		Key:         key,
		WL:          c.hashFn(input),
		TopoHash:    topoHash(input),
		Fingerprint: fp,
		Canon:       canon,
		Plan:        plan,
		PeakMem:     best.PeakMem,
		LatencyBits: math.Float64bits(best.Latency),
		Verified:    true,
	}
	payload, err := json.Marshal(p)
	if err != nil {
		c.putErrors.Add(1)
		return fmt.Errorf("plancache: %w", err)
	}
	if err := fsatomic.WriteSealedFS(c.fsys, filepath.Join(c.dir, key+suffix), Magic, Version, payload, 0o644); err != nil {
		c.putErrors.Add(1)
		return fmt.Errorf("%w: %w", ErrStorage, err)
	}
	c.index(p, time.Now().UnixNano())
	c.puts.Add(1)
	c.evict()
	return nil
}

// evict removes the oldest entries until the cache fits MaxEntries.
func (c *Cache) evict() {
	for {
		c.mu.Lock()
		if len(c.entries) <= c.maxEntries {
			c.mu.Unlock()
			return
		}
		var oldest *meta
		for _, m := range c.entries {
			if oldest == nil || m.added < oldest.added ||
				(m.added == oldest.added && m.key < oldest.key) {
				oldest = m
			}
		}
		c.mu.Unlock()
		if oldest == nil {
			return
		}
		c.drop(oldest.key)
		c.fsys.Remove(filepath.Join(c.dir, oldest.key+suffix))
		c.evictions.Add(1)
	}
}
