// Command edcbench regenerates the paper's tables and figures, and runs
// single instrumented replays for the observability layer.
//
// Usage:
//
//	edcbench                     # run every experiment
//	edcbench -experiment fig10   # one experiment
//	edcbench -list               # list experiment IDs
//	edcbench -requests 30000     # bigger replays
//
//	edcbench -replay fin1 -trace-out trace.jsonl   # decision trace
//	edcbench -replay fin1 -json                    # machine-readable stats
//	edcbench -replay prxy0 -series-out s.json -metrics-out m.prom
//
// OBSERVABILITY.md documents the trace, series, and counter formats.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"edc"
	"edc/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment ID (empty = all)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		requests   = flag.Int("requests", 0, "requests per trace replay (default 12000); fig2 scales its codec corpus with it")
		volumeMiB  = flag.Int("volume", 0, "logical volume size in MiB (default 256)")
		seed       = flag.Int64("seed", 0, "seed offset for all generators")
		format     = flag.String("format", "table", "output format: table, csv, json")
		workers    = flag.Int("workers", 0, "replay pipeline width: codec goroutines per replay (0 = GOMAXPROCS, 1 = sequential; results are identical for any value)")
		shards     = flag.Int("shards", 0, "LBA shards per replay: n > 1 partitions the volume across n independent pipelines run concurrently (changes the simulated system; deterministic for fixed n)")
		faults     = flag.String("faults", "", "JSON fault plan injected into every replay (see DESIGN.md §11; deterministic for a fixed plan seed)")
		maintOn    = flag.Bool("maint", false, "enable temperature-aware background maintenance (default policy) in every replay (see DESIGN.md §13; deterministic for a fixed seed)")
		dedupOn    = flag.Bool("dedup", false, "enable content-addressed deduplication (default policy) in every replay (see DESIGN.md §14; deterministic for a fixed seed)")
		dupRatio   = flag.Float64("dup-ratio", 0, "fraction of payload content regions cloned from a small pool (0 = stock profile; pair with -dedup to give the content index something to find)")
		dupUni     = flag.Int("dup-universe", 0, "distinct clone payloads the -dup-ratio pool draws from (default 64)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		serve   = flag.Bool("serve", false, "run an open-loop serve workload (requires -spec) instead of an experiment")
		spec    = flag.String("spec", "", "with -serve: workload spec — a file path, or inline DSL with ';' separating steps (e.g. \"d=2s qps=500 rw=0.5; qps=2000\")")
		clients = flag.Int("clients", 0, "with -serve: client goroutines offering load (default 8)")

		replayWl    = flag.String("replay", "", "run one instrumented replay of the named workload (fin1, fin2, usr0, prxy0) instead of an experiment")
		scheme      = flag.String("scheme", "EDC", "compression scheme for -replay (Native, Lzf, Lz4, Gzip, Bzip2, EDC, EDC+)")
		traceOut    = flag.String("trace-out", "", "with -replay: write one JSONL decision event per line to this file (\"-\" = stdout)")
		seriesOut   = flag.String("series-out", "", "with -replay: write the sampled time series as JSON to this file")
		seriesEvery = flag.Duration("series-interval", time.Second, "time-series bin width for -series-out")
		metricsOut  = flag.String("metrics-out", "", "with -replay: write decision counters in Prometheus text format to this file (\"-\" = stdout)")
		jsonOut     = flag.Bool("json", false, "with -replay: print the result as machine-readable JSON instead of the text report")
	)
	flag.Parse()

	var plan *edc.FaultPlan
	if *faults != "" {
		p, err := edc.ParseFaultPlan(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edcbench: -faults: %v\n", err)
			os.Exit(1)
		}
		plan = p
	}

	// One Params carries the flags every mode shares.
	p := bench.Params{Requests: *requests, VolumeMiB: *volumeMiB, Seed: *seed, Workers: *workers, Shards: *shards, Faults: plan, Maint: *maintOn,
		Dedup: *dedupOn, DupRatio: *dupRatio, DupUniverse: *dupUni}

	if *serve {
		err := runServe(bench.ServeParams{Params: p, Clients: *clients, Scheme: *scheme},
			*spec, *format, *jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edcbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *replayWl != "" {
		err := runReplay(p, *replayWl, edc.Scheme(*scheme), replayOutputs{
			traceOut:    *traceOut,
			seriesOut:   *seriesOut,
			seriesEvery: *seriesEvery,
			metricsOut:  *metricsOut,
			jsonOut:     *jsonOut,
		}, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edcbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		desc := bench.Describe()
		ids := bench.Experiments()
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Printf("%-18s %s\n", id, desc[id])
		}
		return
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edcbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "edcbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	start := time.Now()
	var (
		tables []*bench.Table
		err    error
	)
	if *experiment == "" {
		tables, err = bench.RunAll(p)
	} else {
		tables, err = bench.Run(*experiment, p)
	}
	if werr := bench.WriteTables(os.Stdout, tables, *format); werr != nil {
		fmt.Fprintf(os.Stderr, "edcbench: %v\n", werr)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "edcbench: %v\n", err)
		os.Exit(1)
	}
	if *format == "table" {
		fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edcbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // materialize the steady-state heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "edcbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// replayOutputs carries the flags that say where a -replay run's
// observers write.
type replayOutputs struct {
	traceOut    string
	seriesOut   string
	seriesEvery time.Duration
	metricsOut  string
	jsonOut     bool
}

// outFile resolves an output path: "-" is stdout (no close), anything
// else is created.
func outFile(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// runReplay performs one instrumented replay: attach whatever observers
// the flags request to the named workload's cell of the experiment
// harness (bench.ReplayCell: same trace, payload seed and 512 MiB
// single-SSD model), play it, and write the outputs — the summary to
// stdout — so a -replay run is directly comparable to the fig8/fig10
// rows for the same workload.
func runReplay(p bench.Params, workload string, scheme edc.Scheme, rc replayOutputs, stdout io.Writer) error {
	var opts []edc.Option
	var jt *edc.JSONLTracer
	if rc.traceOut != "" {
		w, closeFn, err := outFile(rc.traceOut)
		if err != nil {
			return err
		}
		defer closeFn()
		jt = edc.NewJSONLTracer(w)
		opts = append(opts, edc.WithTracer(jt))
	}
	if rc.seriesOut != "" {
		opts = append(opts, edc.WithTimeSeries(rc.seriesEvery))
	}
	if rc.metricsOut != "" && jt == nil && rc.seriesOut == "" {
		// Counters ride on the collector; force one with a no-op tracer.
		opts = append(opts, edc.WithTracer(edc.TracerFunc(func(*edc.TraceEvent) {})))
	}

	res, err := bench.ReplayCell(p, workload, scheme, opts...)
	if err != nil {
		return err
	}
	if jt != nil {
		if err := jt.Flush(); err != nil {
			return fmt.Errorf("trace output: %w", err)
		}
	}
	if rc.seriesOut != "" {
		w, closeFn, err := outFile(rc.seriesOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Obs.Series); err != nil {
			closeFn()
			return fmt.Errorf("series output: %w", err)
		}
		if err := closeFn(); err != nil {
			return err
		}
	}
	if rc.metricsOut != "" {
		w, closeFn, err := outFile(rc.metricsOut)
		if err != nil {
			return err
		}
		if err := res.Obs.WritePrometheus(w); err != nil {
			closeFn()
			return fmt.Errorf("metrics output: %w", err)
		}
		if err := closeFn(); err != nil {
			return err
		}
	}

	// Keep stdout clean for the trace stream when it goes there.
	sum := stdout
	if rc.traceOut == "-" || (rc.metricsOut == "-" && !rc.jsonOut) {
		sum = os.Stderr
	}
	if rc.jsonOut {
		enc := json.NewEncoder(sum)
		enc.SetIndent("", "  ")
		return enc.Encode(res.Report())
	}
	_, err = fmt.Fprint(sum, res.Format())
	return err
}
