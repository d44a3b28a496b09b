// Command magis-serve runs the MAGIS optimizer as a supervised service: an
// HTTP front-end over a bounded job queue with admission control, per-job
// panic isolation, a stall watchdog, and crash-safe drain.
//
// Usage:
//
//	magis-serve -addr :8080 -queue 8 -jobs 2 -checkpoint-dir /var/lib/magis \
//	            -cache-dir /var/lib/magis/plans
//
// Endpoints:
//
//	POST /optimize   submit a job: {"model":"bert","mode":"mem","budget":"30s"}
//	                 202 + job id; 429 when the queue is full; 503 draining
//	GET  /jobs/{id}  job state, progress, and result
//	GET  /healthz    liveness + queue depth, capacity, in-flight jobs
//	GET  /metrics    service counters (admissions, rejections, stalls, ...)
//
// SIGTERM/SIGINT drains: admission stops, in-flight searches are cancelled
// (each writes a final checkpoint), and the process exits once the workers
// stop. Restarting with the same -checkpoint-dir re-admits interrupted
// jobs and resumes them from their snapshots.
//
// Limits without a flag keep their defaults: a request's budget is capped
// at 5m; the admission budget is 2x(queue+jobs)xbudget of estimated
// service time; the plan cache holds 4096 entries; restart recovery
// deletes orphaned checkpoints older than 24h and the oldest beyond 64;
// submitted graphs are bounded by internal/ingest's DefaultLimits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"magis/internal/cliutil"
	"magis/internal/cost"
	"magis/internal/errfs"
	"magis/internal/fsatomic"
	"magis/internal/plancache"
	"magis/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		queue    = flag.Int("queue", 8, "admission queue depth (a full queue rejects with 429)")
		jobs     = flag.Int("jobs", 1, "jobs run concurrently")
		budget   = flag.Duration("budget", 10*time.Second, "default per-job search budget")
		ckDir    = flag.String("checkpoint-dir", "", "job checkpoint directory (enables crash-safe jobs and restart recovery)")
		ckEvery  = flag.Int("checkpoint-every", 0, "checkpoint flush cadence in expansions (0 = default)")
		stall    = flag.Duration("stall-window", 30*time.Second, "cancel a job with no expansion progress for this long (negative disables)")
		drainT   = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for jobs to checkpoint and stop")
		cacheDir = flag.String("cache-dir", "", "persistent plan cache directory (enables verified-plan reuse, warm starts, and single-flight dedup)")
		brkThr   = flag.Int("breaker-threshold", 0, "consecutive failures that open a workload's circuit breaker (0 = default 3, negative disables)")
		brkCool  = flag.Duration("breaker-cooloff", 0, "how long an open breaker rejects its workload before a half-open probe (0 = default 30s)")
		poison   = flag.String("chaos-poison-model", "", "fault injection: every search of this model fails (chaos soak only)")
		memBudg  = flag.String("mem-budget", "", "soft live-memory budget per search (e.g. 512MiB); over budget a search sheds state and settles best-so-far (empty = off)")
		stThr    = flag.Int("storage-threshold", 0, "consecutive storage faults before serving degrades to uncached/uncheckpointed (0 = default 3, negative disables)")
		stCool   = flag.Duration("storage-cooloff", 0, "how long degraded storage waits before a recovery probe (0 = default 30s)")
		stFaults = flag.String("chaos-storage-faults", "", "fault injection: storage fault specs, e.g. enospc@3+2,syncfail~0.1 (chaos only; rate specs use seed 1; see internal/errfs)")
		// Hostile-traffic protections: socket deadlines, body bounds,
		// and per-client fairness.
		maxBody   = flag.String("max-body", "", "largest /optimize request body (e.g. 8MiB; empty = default 8MiB)")
		rhTimeout = flag.Duration("read-header-timeout", cliutil.DefaultHTTPTimeouts().ReadHeader, "evict clients that dribble request headers (0 disables)")
		rdTimeout = flag.Duration("read-timeout", cliutil.DefaultHTTPTimeouts().Read, "bound reading a full request including the body (0 disables)")
		wrTimeout = flag.Duration("write-timeout", cliutil.DefaultHTTPTimeouts().Write, "bound writing a response (0 disables)")
		idTimeout = flag.Duration("idle-timeout", cliutil.DefaultHTTPTimeouts().Idle, "close idle keep-alive connections after this long (0 disables)")
		cliRate   = flag.Float64("client-rate", 0, "per-client request rate limit in requests/sec (0 disables)")
		cliBurst  = flag.Int("client-burst", 0, "per-client rate-limit burst (0 = default 8 when -client-rate is set)")
		cliShare  = flag.Float64("client-share", 0, "one client's fair-share fraction of the admission budget (2x(queue+jobs)xbudget), in (0,1] (0 disables)")
		cliQueue  = flag.Int("client-queue", 0, "per-client cap on queued jobs (0 disables)")
	)
	flag.Parse()

	timeouts := cliutil.HTTPTimeouts{
		ReadHeader: *rhTimeout, Read: *rdTimeout, Write: *wrTimeout, Idle: *idTimeout,
	}
	if err := timeouts.Validate(); err != nil {
		log.Fatal(err)
	}
	if *cliShare < 0 || *cliShare > 1 {
		log.Fatalf("invalid -client-share %v: must be in [0,1]", *cliShare)
	}
	if *cliRate < 0 {
		log.Fatalf("invalid -client-rate %v: must be >= 0", *cliRate)
	}
	maxBodyBytes, err := cliutil.ParseBytes(*maxBody)
	if err != nil {
		log.Fatalf("-max-body: %v", err)
	}

	memBudget, err := cliutil.ParseBytes(*memBudg)
	if err != nil {
		log.Fatalf("-mem-budget: %v", err)
	}
	// The fault-injecting filesystem wraps every persistence touch — the
	// plan cache and the checkpoint writers share one injector so an
	// operation-count spec fires against the service's real disk schedule.
	var fsys fsatomic.FS
	if *stFaults != "" {
		rules, err := errfs.ParseSpecs(*stFaults)
		if err != nil {
			log.Fatalf("-chaos-storage-faults: %v", err)
		}
		fsys = errfs.New(nil, 1, rules...)
		log.Printf("CHAOS: storage faults injected (%s)", *stFaults)
	}

	model := cost.NewModel(cost.RTX3090())
	var cache *plancache.Cache
	if *cacheDir != "" {
		var err error
		cache, err = plancache.Open(plancache.Config{Dir: *cacheDir, Logf: log.Printf, FS: fsys})
		if err != nil {
			// A broken cache directory degrades the service to uncached
			// operation; it must not keep the optimizer down.
			log.Printf("plan cache disabled: %v", err)
			cache = nil
		} else {
			st := cache.Stats()
			log.Printf("plan cache open at %s: %d entries, %d quarantined on scan", *cacheDir, st.Entries, st.Quarantined)
		}
	}

	s := serve.New(serve.Config{
		Model:            model,
		QueueDepth:       *queue,
		Workers:          *jobs,
		DefaultBudget:    *budget,
		CheckpointDir:    *ckDir,
		CheckpointEveryN: *ckEvery,
		StallWindow:      *stall,
		Cache:            cache,
		BreakerThreshold: *brkThr,
		BreakerCooloff:   *brkCool,
		FailModel:        *poison,
		FS:               fsys,
		MemBudget:        memBudget,
		StorageThreshold: *stThr,
		StorageCooloff:   *stCool,
		MaxBody:          maxBodyBytes,
		ClientRate:       *cliRate,
		ClientBurst:      *cliBurst,
		ClientShare:      *cliShare,
		ClientQueue:      *cliQueue,
		Logf:             log.Printf,
	})
	if *poison != "" {
		log.Printf("CHAOS: model %q is poisoned; every search of it will fail", *poison)
	}
	if n := s.Start(); n > 0 {
		log.Printf("recovered %d checkpointed job(s) from %s", n, *ckDir)
	}

	hs := &http.Server{Addr: *addr, Handler: s.Handler()}
	timeouts.Apply(hs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("magis-serve listening on %s", *addr)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		return
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting, cancel in-flight searches (each
	// writes its final checkpoint), then close the listener.
	log.Printf("signal received; draining (timeout %v)", *drainT)
	dctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		log.Printf("drain: %v", err)
	}
	sctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = hs.Shutdown(sctx)
	log.Printf("drained; exiting")
}
