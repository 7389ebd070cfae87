GO ?= go

.PHONY: all build vet lint test race bench fuzz fuzz-smoke bench-sanity scale-report scale-smoke experiments examples benchmark-test cover serve smoke cluster-smoke ha-smoke eco-smoke chaos clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Style gate: gofmt must be clean, and staticcheck runs when installed
# (CI installs it; locally it is optional so a bare toolchain still
# passes `make all`).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$out"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Tier-1 chain: vet, full test run, a race pass over every package, and
# a 10-second fuzz smoke of the Bookshelf writer round trip.
test:
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./...
	$(GO) test ./internal/hypergraph -run '^$$' -fuzz '^FuzzBookshelfRoundTrip$$' -fuzztime 10s

# CI fuzz smoke: 10 seconds each on the Bookshelf writer round trip, the
# multilevel V-cycle invariants, service request validation (generic,
# k-way, and ECO delta), the benchmark generator's structural contract,
# and the IG-Match sweep's per-split output, full and candidate.
fuzz-smoke:
	$(GO) test ./internal/hypergraph -run '^$$' -fuzz '^FuzzBookshelfRoundTrip$$' -fuzztime 10s
	$(GO) test ./internal/multilevel -run '^$$' -fuzz '^FuzzVCycle$$' -fuzztime 10s
	$(GO) test ./internal/service -run '^$$' -fuzz '^FuzzRequestValidate$$' -fuzztime 10s
	$(GO) test ./internal/service -run '^$$' -fuzz '^FuzzKWayRequest$$' -fuzztime 10s
	$(GO) test ./internal/service -run '^$$' -fuzz '^FuzzDeltaRequest$$' -fuzztime 10s
	$(GO) test ./internal/netgen -run '^$$' -fuzz '^FuzzNetgen$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzSweep$$' -fuzztime 10s

# Chaos suite: the seeded fault-injection and panic-isolation tests —
# injector determinism, shard panic barriers, eigen fallback rungs, the
# 100-panicking-jobs survival run, the daemon's degraded-readiness
# probes, and the cluster tier's failover, journal-recovery, HA
# (lease fencing, standby takeover, coordinator crash injection), and
# membership-churn paths — all under the race detector.
chaos:
	$(GO) test -race ./internal/fault
	$(GO) test -race ./internal/core -run 'Panic|SlowShard|FaultThreaded'
	$(GO) test -race ./internal/eigen -run 'Fallback|NoConverge|Rung|NonFinite'
	$(GO) test -race ./internal/service -run 'Chaos|Retry|Backoff|Health|Validate|ShutdownRacingCancel'
	$(GO) test -race ./internal/cluster -run 'Failover|Dead|JournalRecovery|Backpressure|Lease|Standby|Membership|Backends|Crash|Probe|JournalFailure'
	$(GO) test -race ./cmd/igpartd -run 'Readyz|Liveness|IOReadErr|BadRequest|ClusterChaos|ClusterCoordinatorRestart|Standby|SwitchHandler|JournalFailure'

# CI bench sanity: rerun the suite workload and fail on any ratio-cut
# regression beyond 10% of the checked-in baseline, gate the checked-in
# scale report on its million-net claims (>=100k nets, selective reorth
# >=3x faster than full at equal ratio cut) and the checked-in portfolio
# report on its ECO claims (warm re-partition >=3x faster than a cold
# re-solve at matching ratio cut), then the kway-sanity step: rerun both
# balanced k-way engines at k in {2,4,8} and fail on spanning-net
# regressions against the checked-in k-way baseline. Fresh reports land
# under /tmp, never in the tree.
bench-sanity:
	$(GO) run igpart/cmd/experiments -report ci -results /tmp/igpart-bench -scale 0.25 -p 1 \
		-baseline results/BENCH_baseline.json -tolerance 0.10
	$(GO) run igpart/cmd/experiments -gate results/BENCH_scale.json
	$(GO) run igpart/cmd/experiments -gate results/BENCH_portfolio.json
	$(GO) run igpart/cmd/experiments -report kway-ci -workload kway -results /tmp/igpart-bench \
		-scale 0.25 -p 1 -baseline results/BENCH_kway.json -tolerance 0.10

# Regenerate the checked-in million-net-scale report: the 100k-net preset
# partitioned by the candidate sweep under selective and full
# reorthogonalization, gated on its claims once written.
scale-report:
	$(GO) run igpart/cmd/experiments -report scale -workload scale

# CI scale smoke: a fresh 100k-net run diffed against the checked-in
# report — ratio cuts are deterministic (1% tolerance), wall times get a
# generous 5x cross-machine budget — and held to the >=3x-speedup claims
# on its own numbers, in one command.
scale-smoke:
	$(GO) run igpart/cmd/experiments -report scale-smoke -workload scale -results /tmp/igpart-scale \
		-baseline results/BENCH_scale.json -tolerance 0.01 -wall-budget 5.0

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Short fuzzing pass over every fuzz target: the parsers, the Bookshelf
# writer round trip, the multilevel V-cycle, service request validation
# (generic, k-way, and ECO delta), the benchmark generator, and the
# IG-Match sweep's per-split output.
fuzz:
	$(GO) test ./internal/hypergraph -fuzz FuzzReadHGR -fuzztime 30s
	$(GO) test ./internal/hypergraph -fuzz FuzzReadNetlist -fuzztime 30s
	$(GO) test ./internal/hypergraph -fuzz FuzzReadBookshelf -fuzztime 30s
	$(GO) test ./internal/hypergraph -fuzz FuzzBookshelfRoundTrip -fuzztime 30s
	$(GO) test ./internal/multilevel -fuzz FuzzVCycle -fuzztime 30s
	$(GO) test ./internal/service -fuzz FuzzRequestValidate -fuzztime 30s
	$(GO) test ./internal/service -fuzz FuzzKWayRequest -fuzztime 30s
	$(GO) test ./internal/service -fuzz FuzzDeltaRequest -fuzztime 30s
	$(GO) test ./internal/netgen -fuzz FuzzNetgen -fuzztime 30s
	$(GO) test ./internal/core -fuzz FuzzSweep -fuzztime 30s

# Regenerate every paper table at full size.
experiments:
	$(GO) run igpart/cmd/experiments

# Build and run every program under examples/ and fail on the first
# non-zero exit. examples/placement is the one program that runs
# eigen.SmallestK end to end (Hall 2-D and nets-as-points).
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run ./$$d > /dev/null || { echo "examples: $$d failed"; exit 1; }; \
	done

# Vet and test the benchmark harness. benchmark/ is its own Go module, so
# `go build ./...` and `go test ./...` at the root skip it, yet it
# compiles against internal packages: an internal API change that
# breaks it fails here instead of when the benchmark is next run.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The eleven COVER_PKGS must each stay at or above COVER_MIN% statement
# coverage: the pipeline core, the eigensolvers, the multilevel engine,
# the balanced k-way engine, the observability layer, the matching
# substrate, the portfolio racer and its feature extractor, the
# partition-service job engine, the cluster coordinator, and the job
# registry and lifecycle they share.
COVER_PKGS = igpart/internal/core igpart/internal/eigen igpart/internal/multilevel igpart/internal/multiway igpart/internal/obs igpart/internal/bipartite igpart/internal/portfolio igpart/internal/features igpart/internal/service igpart/internal/cluster igpart/internal/jobreg
COVER_MIN  = 70

# The suite runs once: the per-package figures are read from the
# `coverage: X%` lines of that run, kept in cover.txt.
cover:
	@$(GO) test -coverprofile=cover.out ./... > cover.txt; status=$$?; cat cover.txt; exit $$status
	$(GO) tool cover -func=cover.out | tail -1
	@for pkg in $(COVER_PKGS); do \
		pct=$$(sed -n "s|^ok[[:space:]]*$$pkg[[:space:]].*coverage: \([0-9.]*\)%.*|\1|p" cover.txt); \
		if [ -z "$$pct" ]; then echo "cover: no coverage figure for $$pkg"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" -v m="$(COVER_MIN)" 'BEGIN { print (p >= m) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then \
			echo "cover: $$pkg at $$pct% is below the $(COVER_MIN)% floor"; exit 1; \
		fi; \
		echo "cover: $$pkg $$pct% (floor $(COVER_MIN)%)"; \
	done

# Run the partitioning daemon locally, serving netlists from the repo
# root (submit e.g. {"path": "circuits/bm1.hgr"} after netgen -out).
serve:
	$(GO) run igpart/cmd/igpartd -addr 127.0.0.1:8080 -data .

# End-to-end daemon smoke: boot igpartd on a random port, submit a
# generated benchmark, poll to completion, assert a sane result, and
# verify SIGTERM drains cleanly.
smoke:
	./scripts/smoke.sh

# Cluster-mode smoke: coordinator + two backends, a streamed batch, the
# owner backend SIGKILLed mid-batch — every job must still complete and
# the failover must show in the aggregated metrics.
cluster-smoke:
	./scripts/cluster-smoke.sh

# HA smoke: the cluster smoke plus the coordinator-kill and membership
# phases — a standby tails the shared journal and is SIGKILL-promoted
# mid-batch (all jobs finish under their original IDs with ratio-cut
# parity and no duplicate completions), then a backend joins and the
# batch owner leaves via the backends file mid-batch with minimal ring
# churn.
ha-smoke:
	./scripts/cluster-smoke.sh ha

# Incremental-ECO smoke: boot igpartd, solve a base netlist, PATCH a
# small delta against it, and assert the warm re-partition beat a cold
# resubmission of the edited netlist while landing a sane cut.
eco-smoke:
	./scripts/eco-smoke.sh

clean:
	rm -f cover.out cover.txt
