# Tier-1 developer flow. `make check` is what CI runs: build + vet +
# an arm64 cross-build, the full test suite, then the race detector over the packages with real
# concurrency (the obs hot path, the crawler farm, the core pipeline).

GO ?= go

.PHONY: all build vet cross test test-race serve-smoke check fuzz loc bench bench-obs bench-baseline bench-check profile-milk profile-serve

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The portable path: phash's noisy kernel has an AVX2 version in amd64
# assembly, so build every package for arm64, where only the Go kernel
# exists, and vet phash there. Cross-compiling needs no network.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/phash/

test:
	$(GO) test ./...

# The concurrency-bearing packages: internal/obs (lock-free counters,
# span list), internal/crawler (worker farm), internal/core (pipeline +
# timetable-walking milking engine + persistent milking pool),
# internal/cluster (index under one RWMutex, concurrent batch-clustering
# callers), internal/vclock (clock read by concurrent probes), the
# capture fast path shared across worker pools (internal/imaging buffer
# pools, internal/screenshot capture cache, internal/phash fused
# hashing), the script fast path (internal/adscript program cache +
# decode memo, internal/browser per-tab interpreter reuse), the service
# job engine (internal/serve store + worker pool + HTTP handlers), the
# sharded blacklist (internal/gsb concurrent observe/lookup as crawl
# workers and milking probes mint domains), the incremental campaign
# store (internal/campstore queued appenders and lock-free snapshot
# readers), the synthetic web the parallel crawl hits (internal/secamp
# concurrent attack-domain minting, internal/adnet request-keyed
# fills), plus the root package (worker-count determinism contract on
# the serialized report, crawl widths included).
test-race:
	$(GO) test -race ./internal/obs/... ./internal/crawler/... ./internal/core/... \
		./internal/cluster/... ./internal/vclock/... ./internal/gsb/... \
		./internal/imaging/... ./internal/screenshot/... ./internal/phash/... \
		./internal/adscript/... ./internal/browser/... ./internal/serve/... \
		./internal/campstore/... ./internal/secamp/... ./internal/adnet/... .

# Service-mode smoke test (also part of plain `make test`): boot the
# real seacma-serve daemon on a random port, submit the example job
# spec (examples/serve/job.json) over HTTP, poll it to completion, and
# byte-compare the served report against the one-shot pipeline run,
# then drain and check for goroutine leaks.
serve-smoke:
	$(GO) test -run 'TestServeSmoke' -v ./cmd/seacma-serve/

check: build vet cross test test-race

# Run every Fuzz* target in the tree (the separate seacmabench module
# aside) for FUZZTIME each, on two fuzzing workers. go test -fuzz takes
# one target in one package per run, hence the loop. An input that
# fails is written under the package's testdata/fuzz/, where plain
# `go test` replays it from then on.
FUZZTIME ?= 5s
fuzz:
	@set -e; for f in $$(grep -rl --include='*_test.go' --exclude-dir=seacmabench '^func Fuzz' . | sort); do \
	  for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
	    echo "== $$t ($$(dirname $$f))"; \
	    $(GO) test -run XXX -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) -parallel 2 $$(dirname $$f)/; \
	  done; \
	done

# Non-test Go line count (the ROADMAP's size measure): tracked .go
# files minus *_test.go and the separate seacmabench module.
loc:
	@git ls-files '*.go' ':!:*_test.go' ':!:seacmabench/' | xargs cat | wc -l

# The end-to-end benchmark (seacmabench/): builds the harness and the
# seacma-serve daemon under .bench_build/ and prints one JSON result
# line per run. Pick the workload and run shape with
#   make bench BENCH_ARGS="--workload milk --seed 2 --seconds 30 --trace 1"
BENCH_ARGS ?= --workload crawl --seed 1 --seconds 30 --trace 0
bench:
	bash seacmabench/run.sh $(BENCH_ARGS)

# Overhead guard: the uninstrumented (nil-registry) hot path.
bench-obs:
	$(GO) test -bench 'BenchmarkObs_' -run XXX ./internal/obs/

# The perf contract benches: end-to-end pipeline (Figure 2), the milking
# stage per worker count, cluster triage (which reports the
# distance-calls metric of discovery's campaign-store clustering through
# the pigeonhole index), the capture fast path
# (cold miss vs memoized hit, with allocs/op), and the script fast path
# (parse-per-run vs cached program on a reused interpreter), the
# incremental campaign store (append / merge / full-rebuild, each
# reporting its distance-calls), the concurrent store surface
# (AppendBatch from 1/4/8 writers queued on the writer lock, plus a
# read-heavy mix against the store's readers), and one 4-event write
# into stores of 5k and 50k points (StorePublish_, with B/op), the
# crawl's retained live heap per session (RetainedCrawl, live-B/session)
# and the capture cache's retained live heap per entry
# (CaptureCacheRetained, live-B/entry; it lives in internal/screenshot).
# -benchtime 1x keeps a baseline run under a minute; these are
# regression sentinels, not statistically tight measurements.
BENCH_PATTERN = BenchmarkFigure2_PipelineEndToEnd$$|BenchmarkMilking_W|BenchmarkScalars_ClusterTriage|BenchmarkCapturePath_|BenchmarkScriptPath_|BenchmarkIncrementalCluster_|BenchmarkStoreAppend_W|BenchmarkStoreMixed_|BenchmarkStorePublish_|BenchmarkRetainedCrawl$$|BenchmarkCaptureCacheRetained$$
# The hashing/rng/batch-clustering kernel sentinels run at a higher
# benchtime: they are microseconds-to-milliseconds each, so 1x would
# mostly measure timer noise. BenchmarkRngSplit_ lives in internal/rng,
# batch DBSCAN (the campaign store's oracle) in internal/cluster and the
# portable Go hash kernel (BenchmarkHashKernel_Fused256x192_Go) in
# internal/phash, hence the extra dirs.
KERNEL_BENCH_PATTERN = BenchmarkHashKernel_|BenchmarkRngSplit_|BenchmarkDBSCANHashes10k$$
# One GET /v1/campaigns through seacma-serve's handler over 7 campaigns
# of 200 and 2,000 domains (internal/serve) runs at the same 5000x as
# its bench-check guard: a pooled buffer that misses once regrows the
# whole body, which a 1x run would report as the read's cost.
SERVE_BENCH_PATTERN = BenchmarkServeCampaignsRead_
BENCH_BASELINE = BENCH_pipeline.json

# Record the current cost of the contract benches into $(BENCH_BASELINE).
# The GOMAXPROCS suffix is stripped from the names so baselines compare
# across machines; -benchmem pairs (B/op, allocs/op) and custom metrics
# (milked-domains, distance-calls, cache-hit-pct, ...) ride along as
# extra keys. A "host" object records the machine the rows came from:
# nproc, GOMAXPROCS (the stripped name suffix), the Go version, and the
# goos/goarch/cpu lines go test prints.
bench-baseline:
	$(GO) test -run XXX -bench '$(BENCH_PATTERN)' -benchtime 1x -benchmem . ./internal/screenshot/ | tee BENCH_pipeline.txt
	$(GO) test -run XXX -bench '$(KERNEL_BENCH_PATTERN)' -benchtime 100x -benchmem . ./internal/rng/ ./internal/cluster/ ./internal/phash/ | tee -a BENCH_pipeline.txt
	$(GO) test -run XXX -bench '$(SERVE_BENCH_PATTERN)' -benchtime 5000x -benchmem ./internal/serve/ | tee -a BENCH_pipeline.txt
	awk -v nproc="$$(nproc 2>/dev/null || echo 0)" -v gover="$$($(GO) env GOVERSION)" \
	     'BEGIN { print "{" } \
	     /^goos: / && !goos { goos = $$2 } \
	     /^goarch: / && !goarch { goarch = $$2 } \
	     /^cpu: / && !cpu { cpu = $$0; sub(/^cpu: /, "", cpu); gsub(/"/, "", cpu) } \
	     /^Benchmark/ { \
	       name = $$1; \
	       if (!procs) { procs = 1; if (match(name, /-[0-9]+$$/)) procs = substr(name, RSTART + 1) } \
	       sub(/-[0-9]+$$/, "", name); \
	       extra = ""; \
	       for (i = 5; i < NF; i += 2) extra = extra sprintf(", \"%s\": %s", $$(i+1), $$i); \
	       rows = rows sprintf(",\n  \"%s\": {\"ns_per_op\": %s%s}", name, $$3, extra) \
	     } \
	     END { \
	       printf "  \"host\": {\"nproc\": %d, \"gomaxprocs\": %d, \"go\": \"%s\", \"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\"}", \
	         nproc, procs, gover, goos, goarch, cpu; \
	       print rows; print "}" }' BENCH_pipeline.txt > $(BENCH_BASELINE)
	@rm -f BENCH_pipeline.txt
	@echo "wrote $(BENCH_BASELINE)"

# Re-run the end-to-end pipeline bench and fail if the mean of three
# -benchtime 1x runs regressed more than 20% against the recorded
# baseline (a single run read up to 1.2x its neighbours on a shared
# 2-vCPU host with unchanged code), then check the milking
# stage's parallel efficiency: on a host with 4 or more CPUs the probe
# fan-out must make W8 at least 2x faster than W1; on 2 or 3 CPUs it
# must make W2 at least 1.2x faster than W1, comparing the means of
# three -benchtime 3x runs of each: a single 3x run read 0.82-1.51x on
# a shared 2-vCPU host, the mean of three 1.25-1.35x. The efficiency
# guard is skipped only on a single CPU — probes cannot run in
# parallel without cores to run them on, so the ratio is meaningless
# there.
# The store guard runs on any host: eight appenders queued on the
# campaign store's writer lock must ingest the corpus in at most 1.25x
# the single-writer time (queueing must not collapse throughput),
# comparing the means of three -benchtime 20x runs of each.
# The hash kernel guard runs on amd64 CPUs with AVX2: the dispatched
# capture kernel (BenchmarkHashKernel_Fused256x192, the AVX2 kernel
# there) must be at least 2.5x faster than the portable Go kernel
# (BenchmarkHashKernel_Fused256x192_Go in internal/phash), comparing the
# means of three interleaved -benchtime 1000x runs of each. Elsewhere it
# prints SKIP with the reason.
# The allocation guards (incremental append distance calls, cold
# rng.Split bytes, and the publish guard: one 4-event write into a
# 50k-point store may allocate at most 1.5x the bytes of the same write
# into a 5k-point store; and the read guard: one GET /v1/campaigns
# over 2,000-domain campaigns may allocate at most 1.5x the bytes of
# one over 200-domain campaigns) count work, not time, so they run on
# any host. So do the two retained-memory guards: after a 150- and a
# 600-publisher crawl of the default world (milking skipped), each
# Result held and the heap collected, the live bytes kept per extra
# crawl session may be at most 32 KiB (a crawl keeps summaries, not
# instrumentation logs); and after 4,096 distinct captures through one
# capture cache, the documents dropped and the heap collected, the live
# bytes kept per cache entry may be at most 1 KiB (the cache keeps
# hashes, not documents).
bench-check:
	@test -f $(BENCH_BASELINE) || { echo "no $(BENCH_BASELINE); run make bench-baseline first"; exit 1; }
	$(GO) test -run XXX -bench 'BenchmarkFigure2_PipelineEndToEnd$$' -benchtime 1x -count 3 . | tee BENCH_check.txt
	@base=$$(sed -n 's/.*"BenchmarkFigure2_PipelineEndToEnd": {"ns_per_op": \([0-9.]*\).*/\1/p' $(BENCH_BASELINE)); \
	now=$$(awk '$$1 ~ /^BenchmarkFigure2_PipelineEndToEnd(-[0-9]+)?$$/ { s += $$3; n++ } END { if (n) printf "%.0f", s / n }' BENCH_check.txt); \
	rm -f BENCH_check.txt; \
	if [ -z "$$base" ] || [ -z "$$now" ]; then echo "could not extract ns/op (base=$$base now=$$now)"; exit 1; fi; \
	awk -v base="$$base" -v now="$$now" 'BEGIN { \
	  limit = base * 1.2; \
	  printf "e2e baseline %s ns/op, current %s ns/op (mean of 3), limit %.0f ns/op\n", base, now, limit; \
	  exit (now + 0 > limit) ? 1 : 0 }' \
	  || { echo "FAIL: end-to-end pipeline bench regressed >20%"; exit 1; }
	@cpus=$$(nproc 2>/dev/null || echo 1); \
	if [ "$$cpus" -lt 2 ]; then \
	  echo "SKIP: milking scaling guard needs >=2 CPUs (have $$cpus)"; \
	else \
	  if [ "$$cpus" -ge 4 ]; then wn=8; need=2.0; bt=1x; cnt=1; else wn=2; need=1.2; bt=3x; cnt=3; fi; \
	  $(GO) test -run XXX -bench "BenchmarkMilking_W[1$$wn]\$$" -benchtime $$bt -count $$cnt . | tee BENCH_milk.txt; \
	  w1=$$(awk '$$1 ~ /^BenchmarkMilking_W1(-[0-9]+)?$$/ { s += $$3; n++ } END { if (n) printf "%.0f", s / n }' BENCH_milk.txt); \
	  wk=$$(awk -v k="$$wn" '$$1 ~ ("^BenchmarkMilking_W" k "(-[0-9]+)?$$") { s += $$3; n++ } END { if (n) printf "%.0f", s / n }' BENCH_milk.txt); \
	  rm -f BENCH_milk.txt; \
	  if [ -z "$$w1" ] || [ -z "$$wk" ]; then echo "could not extract milking ns/op (w1=$$w1 w$$wn=$$wk)"; exit 1; fi; \
	  awk -v w1="$$w1" -v wk="$$wk" -v n="$$wn" -v need="$$need" 'BEGIN { \
	    ratio = w1 / wk; \
	    printf "milking W1 %s ns/op, W%s %s ns/op, speedup %.2fx (need >=%sx)\n", w1, n, wk, ratio, need; \
	    exit (ratio < need + 0) ? 1 : 0 }' \
	    || { echo "FAIL: Milking_W$$wn not >=$${need}x faster than W1 — probe fan-out lost its parallel efficiency"; exit 1; }; \
	fi
	@$(GO) test -run XXX -bench 'BenchmarkStoreAppend_W[18]$$' -benchtime 20x -count 3 . | tee BENCH_store.txt; \
	w1=$$(awk '$$1 ~ /^BenchmarkStoreAppend_W1(-[0-9]+)?$$/ { s += $$3; n++ } END { if (n) printf "%.0f", s / n }' BENCH_store.txt); \
	w8=$$(awk '$$1 ~ /^BenchmarkStoreAppend_W8(-[0-9]+)?$$/ { s += $$3; n++ } END { if (n) printf "%.0f", s / n }' BENCH_store.txt); \
	rm -f BENCH_store.txt; \
	if [ -z "$$w1" ] || [ -z "$$w8" ]; then echo "could not extract store ns/op (w1=$$w1 w8=$$w8)"; exit 1; fi; \
	awk -v w1="$$w1" -v w8="$$w8" 'BEGIN { \
	  ratio = w8 / w1; \
	  printf "store append W1 %s ns/op, W8 %s ns/op (means of 3), W8/W1 %.2f (limit 1.25)\n", w1, w8, ratio; \
	  exit (ratio > 1.25) ? 1 : 0 }' \
	  || { echo "FAIL: StoreAppend_W8 took >1.25x W1 — writers queued on the store's writer lock collapsed"; exit 1; }
	@arch=$$($(GO) env GOARCH); \
	if [ "$$arch" != amd64 ]; then \
	  echo "SKIP: hash kernel guard: the AVX2 kernel is amd64-only (GOARCH=$$arch)"; \
	elif ! grep -qw avx2 /proc/cpuinfo 2>/dev/null; then \
	  echo "SKIP: hash kernel guard: the CPU has no AVX2 (no avx2 flag in /proc/cpuinfo)"; \
	else \
	  rm -f BENCH_kernel.txt; \
	  for i in 1 2 3; do \
	    $(GO) test -run XXX -bench 'BenchmarkHashKernel_Fused256x192$$' -benchtime 1000x . | tee -a BENCH_kernel.txt; \
	    $(GO) test -run XXX -bench 'BenchmarkHashKernel_Fused256x192_Go$$' -benchtime 1000x ./internal/phash/ | tee -a BENCH_kernel.txt; \
	  done; \
	  simd=$$(awk '$$1 ~ /^BenchmarkHashKernel_Fused256x192(-[0-9]+)?$$/ { s += $$3; n++ } END { if (n) printf "%.0f", s / n }' BENCH_kernel.txt); \
	  port=$$(awk '$$1 ~ /^BenchmarkHashKernel_Fused256x192_Go(-[0-9]+)?$$/ { s += $$3; n++ } END { if (n) printf "%.0f", s / n }' BENCH_kernel.txt); \
	  rm -f BENCH_kernel.txt; \
	  if [ -z "$$simd" ] || [ -z "$$port" ]; then echo "could not extract hash kernel ns/op (dispatched=$$simd go=$$port)"; exit 1; fi; \
	  awk -v simd="$$simd" -v port="$$port" 'BEGIN { \
	    ratio = port / simd; \
	    printf "hash kernel: dispatched %s ns/op, Go %s ns/op (means of 3), speedup %.2fx (need >=2.5x)\n", simd, port, ratio; \
	    exit (ratio < 2.5) ? 1 : 0 }' \
	    || { echo "FAIL: the dispatched hash kernel is not >=2.5x faster than the Go kernel — the AVX2 kernel is not selected or lost its speed"; exit 1; }; \
	fi
	@$(GO) test -run XXX -bench 'BenchmarkIncrementalCluster_(Append|FullRebuild)$$' -benchtime 1x . | tee BENCH_incr.txt; \
	app=$$(awk '$$1 ~ /^BenchmarkIncrementalCluster_Append(-[0-9]+)?$$/ { for (i = 2; i < NF; i++) if ($$(i+1) == "distance-calls") print $$i }' BENCH_incr.txt); \
	reb=$$(awk '$$1 ~ /^BenchmarkIncrementalCluster_FullRebuild(-[0-9]+)?$$/ { for (i = 2; i < NF; i++) if ($$(i+1) == "distance-calls") print $$i }' BENCH_incr.txt); \
	rm -f BENCH_incr.txt; \
	if [ -z "$$app" ] || [ -z "$$reb" ]; then echo "could not extract distance-calls (append=$$app rebuild=$$reb)"; exit 1; fi; \
	awk -v app="$$app" -v reb="$$reb" 'BEGIN { \
	  printf "incremental append %s distance calls/tranche vs full rebuild %s (limit: 20%% of rebuild)\n", app, reb; \
	  exit (app + 0 > reb * 0.2) ? 1 : 0 }' \
	  || { echo "FAIL: incremental append pays >20% of a full rebuild's distance calls"; exit 1; }
	@$(GO) test -run XXX -bench 'BenchmarkRngSplit_Cold$$' -benchtime 1000x -benchmem ./internal/rng/ | tee BENCH_rng.txt; \
	bop=$$(awk '$$1 ~ /^BenchmarkRngSplit_Cold(-[0-9]+)?$$/ { for (i = 2; i < NF; i++) if ($$(i+1) == "B/op") print $$i }' BENCH_rng.txt); \
	rm -f BENCH_rng.txt; \
	if [ -z "$$bop" ]; then echo "could not extract rng split B/op"; exit 1; fi; \
	awk -v bop="$$bop" 'BEGIN { \
	  printf "cold rng split %s B/op (limit 512 B/op)\n", bop; \
	  exit (bop + 0 > 512) ? 1 : 0 }' \
	  || { echo "FAIL: a cold rng.Split allocates >512 B — seeding is materializing math/rand state eagerly"; exit 1; }
	@$(GO) test -run XXX -bench 'BenchmarkStorePublish_(5k|50k)$$' -benchtime 20x -benchmem . | tee BENCH_publish.txt; \
	small=$$(awk '$$1 ~ /^BenchmarkStorePublish_5k(-[0-9]+)?$$/ { for (i = 2; i < NF; i++) if ($$(i+1) == "B/op") print $$i }' BENCH_publish.txt); \
	large=$$(awk '$$1 ~ /^BenchmarkStorePublish_50k(-[0-9]+)?$$/ { for (i = 2; i < NF; i++) if ($$(i+1) == "B/op") print $$i }' BENCH_publish.txt); \
	rm -f BENCH_publish.txt; \
	if [ -z "$$small" ] || [ -z "$$large" ]; then echo "could not extract publish B/op (5k=$$small 50k=$$large)"; exit 1; fi; \
	awk -v small="$$small" -v large="$$large" 'BEGIN { \
	  ratio = large / small; \
	  printf "store publish %s B/op at 5k points, %s B/op at 50k, ratio %.2f (limit 1.5)\n", small, large, ratio; \
	  exit (ratio > 1.5) ? 1 : 0 }' \
	  || { echo "FAIL: a write into a 50k-point store allocates >1.5x one into a 5k-point store — the publish scales with the store"; exit 1; }
	@$(GO) test -run XXX -bench 'BenchmarkServeCampaignsRead_(200|2k)$$' -benchtime 5000x -benchmem ./internal/serve/ | tee BENCH_read.txt; \
	small=$$(awk '$$1 ~ /^BenchmarkServeCampaignsRead_200(-[0-9]+)?$$/ { for (i = 2; i < NF; i++) if ($$(i+1) == "B/op") print $$i }' BENCH_read.txt); \
	large=$$(awk '$$1 ~ /^BenchmarkServeCampaignsRead_2k(-[0-9]+)?$$/ { for (i = 2; i < NF; i++) if ($$(i+1) == "B/op") print $$i }' BENCH_read.txt); \
	rm -f BENCH_read.txt; \
	if [ -z "$$small" ] || [ -z "$$large" ]; then echo "could not extract campaigns read B/op (200=$$small 2k=$$large)"; exit 1; fi; \
	awk -v small="$$small" -v large="$$large" 'BEGIN { \
	  ratio = large / small; \
	  printf "campaigns read %s B/op at 200 domains, %s B/op at 2k, ratio %.2f (limit 1.5)\n", small, large, ratio; \
	  exit (ratio > 1.5) ? 1 : 0 }' \
	  || { echo "FAIL: a /v1/campaigns read over 2k-domain campaigns allocates >1.5x one over 200 — the response encoder allocates per body byte"; exit 1; }
	@$(GO) test -run XXX -bench 'BenchmarkRetainedCrawl$$' -benchtime 1x . | tee BENCH_retained.txt; \
	live=$$(awk '$$1 ~ /^BenchmarkRetainedCrawl(-[0-9]+)?$$/ { for (i = 2; i < NF; i++) if ($$(i+1) == "live-B/session") print $$i }' BENCH_retained.txt); \
	rm -f BENCH_retained.txt; \
	if [ -z "$$live" ]; then echo "could not extract retained live-B/session"; exit 1; fi; \
	awk -v live="$$live" 'BEGIN { \
	  printf "crawl retains %.1f KiB live heap per session (limit 32 KiB)\n", live / 1024; \
	  exit (live + 0 > 32 * 1024) ? 1 : 0 }' \
	  || { echo "FAIL: a finished crawl keeps >32 KiB per session alive — session logs, graphs or captured documents outlive their commit"; exit 1; }
	@$(GO) test -run XXX -bench 'BenchmarkCaptureCacheRetained$$' -benchtime 1x ./internal/screenshot/ | tee BENCH_cache.txt; \
	live=$$(awk '$$1 ~ /^BenchmarkCaptureCacheRetained(-[0-9]+)?$$/ { for (i = 2; i < NF; i++) if ($$(i+1) == "live-B/entry") print $$i }' BENCH_cache.txt); \
	rm -f BENCH_cache.txt; \
	if [ -z "$$live" ]; then echo "could not extract capture cache live-B/entry"; exit 1; fi; \
	awk -v live="$$live" 'BEGIN { \
	  printf "capture cache retains %.0f B live heap per entry (limit 1024 B)\n", live; \
	  exit (live + 0 > 1024) ? 1 : 0 }' \
	  || { echo "FAIL: a capture cache entry keeps >1 KiB alive — the cache pins the documents it captured"; exit 1; }
	@echo "bench-check OK"

# Profile the milking stage (the pipeline's hot loop) and print where
# the time and allocations go, so the next perf PR starts from evidence
# instead of guessing. Leaves milk_cpu.prof / milk_mem.prof behind for
# interactive pprof sessions.
profile-milk:
	$(GO) test -run XXX -bench 'BenchmarkMilking_W1$$' -benchtime 1x \
		-cpuprofile milk_cpu.prof -memprofile milk_mem.prof .
	@echo "=== cpu top-10 ==="
	$(GO) tool pprof -top -nodecount=10 repro.test milk_cpu.prof
	@echo "=== alloc_space top-10 ==="
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space repro.test milk_mem.prof
	@echo "=== alloc_objects top-10 (alloc-site breakdown by count) ==="
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_objects repro.test milk_mem.prof

# Profile the daemon's ingest path under the canned load
# (TestServeIngestLoad: a store seeded with registered campaigns, then
# 4 writers batching appends while snapshot reads ride along) and print
# where its CPU time and allocated bytes go, plus where goroutines
# queue: mutex shows hold time on the store's one writer lock, block
# shows wait time at acquisition sites. -count 100 repeats the load so
# the CPU profile holds a few hundred samples. The load calls the store
# directly, so a second run profiles the HTTP read side:
# BenchmarkServeCampaignsRead_2k serves GET /v1/campaigns through the
# daemon's handler, response encoding included. Profiles land under the
# ignored prof/ directory for interactive pprof sessions; the compiled
# test binary is removed once the reports print.
profile-serve:
	@mkdir -p prof
	$(GO) test -run 'TestServeIngestLoad$$' -count 100 \
		-cpuprofile prof/serve_cpu.prof -memprofile prof/serve_mem.prof \
		-mutexprofile prof/serve_mutex.prof -blockprofile prof/serve_block.prof \
		-o prof/serve.test ./internal/serve/
	@echo "=== cpu top-10 ==="
	$(GO) tool pprof -top -nodecount=10 prof/serve.test prof/serve_cpu.prof
	@echo "=== alloc_space top-10 ==="
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space prof/serve.test prof/serve_mem.prof
	@echo "=== mutex contention top-10 ==="
	$(GO) tool pprof -top -nodecount=10 prof/serve.test prof/serve_mutex.prof
	@echo "=== block top-10 ==="
	$(GO) tool pprof -top -nodecount=10 prof/serve.test prof/serve_block.prof
	$(GO) test -run XXX -bench 'BenchmarkServeCampaignsRead_2k$$' -benchtime 2000x -benchmem \
		-cpuprofile prof/read_cpu.prof -memprofile prof/read_mem.prof \
		-o prof/serve.test ./internal/serve/
	@echo "=== campaigns read: cpu top-10 ==="
	$(GO) tool pprof -top -nodecount=10 prof/serve.test prof/read_cpu.prof
	@echo "=== campaigns read: alloc_space top-10 ==="
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space prof/serve.test prof/read_mem.prof
	@rm -f prof/serve.test
