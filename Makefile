GO ?= go

.PHONY: all build test vet fmtcheck doclint race raceall bench perfdiff servecheck corescale check cover matrixcheck qoscheck clean

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

# The determinism gate for feature combinations: singles and pairs of
# {fault plan, maintenance, dedup, tagged QoS trace, cache + verify} at
# one and two shards, each replayed twice under the race detector with
# the reports compared byte for byte (matrix_test.go).
matrixcheck:
	GOMAXPROCS=4 $(GO) test -race -run TestFeatureMatrix .

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
check: fmtcheck vet build doclint test race matrixcheck qoscheck

clean:
	$(GO) clean ./...
