GO ?= go

.PHONY: all build test vet fmtcheck doclint race raceall bench fuzz perfdiff tablediff corescale check cover matrixcheck clean

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
# internal/maint, internal/dedup), and on any `edc.Identifier` that
# README.md, DESIGN.md, OBSERVABILITY.md or EXPERIMENTS.md cites as code
# but the root package does not export.
doclint:
	$(GO) run ./cmd/doclint

test:
	$(GO) test ./...

# Race-check the packages that exercise the replay and serve pipelines
# (real goroutines joining the virtual-time event loop). internal/bench
# drives the live serve path: its open-loop two-tenant QoS spec must
# reproduce its whole result, latencies included, at one and two shards
# (TestRunServeDeterministicCounts).
race:
	$(GO) test -race ./internal/core/... ./internal/sim/... ./internal/parallel/... ./internal/bench/... .

# Race-check everything (the CI race job; slower than `race`).
raceall:
	$(GO) test -race ./...

# The determinism gate for feature combinations: singles and pairs of
# {fault plan, maintenance, dedup, tagged QoS trace, cache + verify} at
# one and two shards, each replayed twice under the race detector with
# the reports compared byte for byte (matrix_test.go).
matrixcheck:
	GOMAXPROCS=4 $(GO) test -race -run TestFeatureMatrix .

# Codec, generator, trace-format and backend microbenchmarks with
# allocation counts; the lzf/gz decode and encode rows (BenchmarkDecode
# and BenchmarkEncode in their packages), the datagen rows and the trace
# rows come in pairs, product
# and kept reference; gz's BenchmarkAppendCompressWithin times budgeted
# encodes of 64 KiB media, text and binary blocks at 3/4, 1/2 and 1/4 of
# the input, each beside a /full row; BenchmarkStreamNext times one open-loop draw with
# zipfian-0.99 and with uniform read keys at 32 MiB / 4 KiB, each beside a
# /pow row without the zipfian rank lookup; BenchmarkBackend times one
# single-SSD or RAIS5 operation through its member queue; BenchmarkFutureJoin times one codec
# pool join on an idle pool and behind eight queued jobs; BenchmarkReplayFin1
# replays 6 000 Fin1 requests with the codec work inline (workers-1) and on
# a two-worker pool with the write path's trace lookahead (workers-2);
# BenchmarkServeHandoff times the serve hand-off on cache hits (hits) and
# on serve-hot-small's 90/10 mix, whose raw writes show the event loop's
# per-write cost (mix); BenchmarkVerifiedRead times one steady-state
# verified read of a compressed 8 KiB extent, its pool job included (0
# allocs/op: TestVerifiedReadAllocs holds it there); BenchmarkRawBatch
# times one pool job of raw-run write-through verdicts (32 Enterprise
# 4 KiB runs); BenchmarkWrite4K
# times one 4 KiB flash write through the FTL and BenchmarkNew builds a
# default 2 GiB SSD model (page-map chunks come with the first write);
# BenchmarkEngineServeBatch times one serve batch on the event engine,
# 256 priority arrivals each scheduling one plain completion and then
# RunUntil, with the stamps in order (ordered: they take the FIFO lane)
# and shuffled (unordered: most go to the heap).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/compress/... ./internal/datagen ./internal/trace ./internal/workload ./internal/core ./internal/parallel ./internal/ssd ./internal/sim

# Ten seconds of fuzzing per target: the payload RNG against math/rand,
# the two trace parsers (whose past crashers are in testdata/fuzz; the SPC
# parser against its kept reference) and the SPC writer against its kept
# reference, the lzf and gz decoders and encoders against their kept
# references, and the EDCF frame
# decoder (seeded with the frames whose header claims 3 840 MiB; it
# minimises briefly: shrinking an input under a CRC seldom succeeds). The
# encoder targets minimise briefly too: each try runs two encoders over
# an input that can be a corpus block of 64 KiB, and a long minimisation
# would take the whole ten seconds. The zipfian rank lookup is fuzzed
# against its math.Pow expression, at random draws and next to its cuts.
# The estimator's certain verdict (a raw run settled from its regions'
# byte alphabets) is fuzzed against the estimate of the generated run.
# The event engine (FIFO arrival lane plus heap) runs fuzzed programs in
# lockstep with a sorted-slice reference queue.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSourceMatchesMathRand -fuzztime 10s ./internal/datagen
	$(GO) test -run '^$$' -fuzz FuzzParseSPC -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzParseMSR -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzWriteSPC -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzDecompress -fuzztime 10s ./internal/compress/lzf
	$(GO) test -run '^$$' -fuzz FuzzDecompress -fuzztime 10s ./internal/compress/gz
	$(GO) test -run '^$$' -fuzz FuzzCompress -fuzztime 10s -fuzzminimizetime 1s ./internal/compress/lzf
	$(GO) test -run '^$$' -fuzz FuzzCompress -fuzztime 10s -fuzzminimizetime 1s ./internal/compress/gz
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s -fuzzminimizetime 1s ./internal/compress
	$(GO) test -run '^$$' -fuzz FuzzZipfRank -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzCertainVerdict -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzEngineOrder -fuzztime 10s ./internal/sim

# Paired benchmark against a parent revision, by BENCHMARK.json's rule:
# ten alternating parent/change pairs per workload plus a held-out seed,
# run through perf/run.sh on both sides, then `perf/run.sh compare`
# (exit 1 on any metric judged worse). About 25 minutes.
#   make perfdiff BASE=HEAD~1
perfdiff:
	@test -n "$(BASE)" || { echo "usage: make perfdiff BASE=<rev>"; exit 2; }
	bash scripts/perfdiff.sh $(BASE)

# Every experiment's tables against a base revision, byte for byte: each
# experiment ID run on its own at -requests 1500 (FULL=1: also at the
# default size) with -format csv, fig2's measured MB/s columns blanked;
# exit 1 on any difference. The acceptance check of a change that must
# keep every table byte-identical. Minutes (FULL=1: tens of minutes), so
# not part of check or CI.
#   make tablediff BASE=HEAD~1 [FULL=1]
tablediff:
	@test -n "$(BASE)" || { echo "usage: make tablediff BASE=<rev> [FULL=1]"; exit 2; }
	FULL=$(FULL) bash scripts/tablediff.sh $(BASE)

# Core-scaling sweep and gate: the same stamp-ordered serve workload at
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

# The tier-1 gate: everything a PR must keep green. (CI's check job runs
# this list minus race and matrixcheck, which have jobs of their own
# there: the 42-cell matrix runs under -race once per push, not four
# times.)
check: fmtcheck vet build doclint test race matrixcheck

clean:
	$(GO) clean ./...
