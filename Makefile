GO ?= go

.PHONY: all build test vet fmtcheck doclint race raceall bench perfjson perfdiff servecheck corescale check cover faultcheck maintcheck dedupcheck qoscheck clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when any file is not gofmt-clean, listing the offenders.
fmtcheck:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Fail on undocumented exported identifiers in the audited packages
# (root edc, internal/core, internal/metrics, internal/obs,
# internal/maint, internal/dedup).
doclint:
	$(GO) run ./cmd/doclint

test:
	$(GO) test ./...

# Race-check the packages that exercise the replay pipeline (real
# goroutines joining the virtual-time event loop).
race:
	$(GO) test -race ./internal/core/... ./internal/sim/... ./internal/parallel/... .

# Race-check everything (the CI race job; slower than `race`).
raceall:
	$(GO) test -race ./...

# Determinism gate for the fault layer: replay fig8 twice under a canned
# fault plan and fail on any byte of divergence.
FAULTPLAN := {"seed":7,"read_transient":0.01,"write_transient":0.02,"write_hard":0.005,"spike_rate":0.01,"spike_latency":"2ms"}
faultcheck:
	$(GO) run ./cmd/edcbench -experiment fig8 -format csv -requests 3000 -faults '$(FAULTPLAN)' > /tmp/edc-faultcheck-1.csv
	$(GO) run ./cmd/edcbench -experiment fig8 -format csv -requests 3000 -faults '$(FAULTPLAN)' > /tmp/edc-faultcheck-2.csv
	cmp /tmp/edc-faultcheck-1.csv /tmp/edc-faultcheck-2.csv
	@echo "faultcheck OK: fig8 under the canned fault plan is deterministic"

# Determinism gate for background maintenance: replay the maint
# experiment (EDC off/on over the four traces) twice under the race
# detector — once single-pipeline, once sharded — and fail on any byte
# of divergence.
maintcheck:
	GOMAXPROCS=4 $(GO) run -race ./cmd/edcbench -experiment maint -format csv -requests 3000 > /tmp/edc-maintcheck-1.csv
	GOMAXPROCS=4 $(GO) run -race ./cmd/edcbench -experiment maint -format csv -requests 3000 > /tmp/edc-maintcheck-2.csv
	cmp /tmp/edc-maintcheck-1.csv /tmp/edc-maintcheck-2.csv
	GOMAXPROCS=4 $(GO) run -race ./cmd/edcbench -experiment maint -format csv -requests 3000 -shards 2 -workers 2 > /tmp/edc-maintcheck-s1.csv
	GOMAXPROCS=4 $(GO) run -race ./cmd/edcbench -experiment maint -format csv -requests 3000 -shards 2 -workers 2 > /tmp/edc-maintcheck-s2.csv
	cmp /tmp/edc-maintcheck-s1.csv /tmp/edc-maintcheck-s2.csv
	@echo "maintcheck OK: background maintenance is deterministic (1 and 2 shards, -race)"

# Determinism gate for content-addressed dedup: replay the dedup
# experiment (EDC off/on over the four traces, duplicate-heavy payloads)
# twice under the race detector — once single-pipeline, once sharded —
# and fail on any byte of divergence.
dedupcheck:
	GOMAXPROCS=4 $(GO) run -race ./cmd/edcbench -experiment dedup -format csv -requests 3000 > /tmp/edc-dedupcheck-1.csv
	GOMAXPROCS=4 $(GO) run -race ./cmd/edcbench -experiment dedup -format csv -requests 3000 > /tmp/edc-dedupcheck-2.csv
	cmp /tmp/edc-dedupcheck-1.csv /tmp/edc-dedupcheck-2.csv
	GOMAXPROCS=4 $(GO) run -race ./cmd/edcbench -experiment dedup -format csv -requests 3000 -shards 2 -workers 2 > /tmp/edc-dedupcheck-s1.csv
	GOMAXPROCS=4 $(GO) run -race ./cmd/edcbench -experiment dedup -format csv -requests 3000 -shards 2 -workers 2 > /tmp/edc-dedupcheck-s2.csv
	cmp /tmp/edc-dedupcheck-s1.csv /tmp/edc-dedupcheck-s2.csv
	@echo "dedupcheck OK: content-addressed dedup is deterministic (1 and 2 shards, -race)"

# Determinism and tag-inertness gate for multi-tenant QoS: the
# two-tenant serve spec (latency class + bandwidth-shaped bulk class)
# twice under the race detector at one and two shards, comparing the
# pipeline-determined results (op counts, codec mixes, byte totals,
# per-tenant shaping/rejection counts — open-loop latency fields depend
# on real-time batch boundaries and are excluded), then a
# tagged-single-tenant spec against its untagged twin: the tag alone
# must change nothing. Needs jq.
qoscheck:
	sh scripts/qoscheck.sh

# Codec + generator microbenchmarks with allocation counts.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/compress ./internal/datagen

# Machine-readable performance snapshot: fig8/fig10 replay tables, the
# maintenance before/after space table, the codec microbenchmarks, an
# open-loop serve run, the multi-tenant qos isolation run, and the
# corescale sweep, written to $(PERFJSON_OUT) at the repo root
# (override to snapshot elsewhere).
PERFJSON_OUT ?= BENCH_10.json
perfjson:
	sh scripts/perfjson.sh $(PERFJSON_OUT)

# Paired benchmark against a parent revision, by BENCHMARK.json's rule:
# ten alternating parent/change pairs per workload plus a held-out seed,
# run through perf/run.sh on both sides, then `perf/run.sh compare`
# (exit 1 on any metric judged worse). About 25 minutes.
#   make perfdiff BASE=HEAD~1
perfdiff:
	@test -n "$(BASE)" || { echo "usage: make perfdiff BASE=<rev>"; exit 2; }
	bash scripts/perfdiff.sh $(BASE)

# Serve-mode smoke: a short multi-step open-loop spec pushed through the
# race detector on several cores — the concurrency gate for the live
# serving path. CI's serve-smoke job runs exactly this target.
servecheck:
	GOMAXPROCS=4 $(GO) run -race ./cmd/edcbench -serve \
		-spec specs/serve-smoke.spec -clients 8 -shards 2 -volume 64

# Core-scaling sweep and gate: the same paced serve workload at
# GOMAXPROCS 1/2/4. Always asserts the virtual-time results (per-step
# counts, achieved QPS, percentiles) are byte-identical across the
# three runs; with CORESCALE_MIN set (CI: 1.5 on 4-vCPU runners) also
# asserts ops/sec-wall at 4 procs >= CORESCALE_MIN x the 1-proc run.
# Needs jq.
corescale:
	sh scripts/corescale.sh

# Coverage for the EDC block layer (the staged pipeline), with a
# per-function summary and the total.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/core/...
	$(GO) tool cover -func=coverage.out | tail -n 25

# The tier-1 gate: everything a PR must keep green.
check: fmtcheck vet build doclint test race maintcheck dedupcheck qoscheck

clean:
	$(GO) clean ./...
