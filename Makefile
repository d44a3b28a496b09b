# Convenience targets; everything is plain `go` underneath.

.PHONY: build test race bench-gate cache-chaos soak-chaos storage-chaos hostile-chaos

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Judges the uncommitted changes against HEAD on the fixed-work search
# workloads of bench/: five alternating pairs, bounds from BENCHMARK.json
# (./scripts/bench_gate.sh <rev> compares against another revision).
bench-gate:
	./scripts/bench_gate.sh HEAD

# Damages the persistent plan cache in every way a deployment can
# (bit flips, truncation, junk floods, SIGKILL) against a live server.
cache-chaos:
	./scripts/cache_chaos.sh

# Overload soak: mixed seeded traffic (hits, warm starts, cold searches,
# deadlines, a poisoned workload) plus SIGKILL/restart against a live
# server, asserting the serving invariants end to end (RACE=1 for -race).
soak-chaos:
	./scripts/soak_chaos.sh

# Resource-exhaustion chaos: every storage fault class (ENOSPC, torn
# writes, fsync failures, fd exhaustion, rename failures) injected under
# a live server, SIGKILL under a full disk, and the search memory
# governor's graceful stop + idle bit-identity.
storage-chaos:
	./scripts/storage_chaos.sh

# Hostile-traffic chaos: a malformed/adversarial request corpus, a
# slow-loris client, and a single-tenant flood against a live server
# with tight limits — every attack must be a structured 4xx, the good
# client's SLO must hold, and every ledger must drain (RACE=1 for -race).
hostile-chaos:
	./scripts/hostile_chaos.sh
