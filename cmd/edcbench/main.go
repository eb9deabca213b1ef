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
	"errors"
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
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "edcbench: %v\n", err)
		os.Exit(1)
	}
}

// errUsage is a command-line error the flag set has already reported.
var errUsage = errors.New("usage")

// run is the whole command: it parses args, starts the profiles they
// ask for, runs the one mode they select and writes the heap profile, so
// profiling wraps every mode.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("edcbench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "", "experiment ID (empty = all)")
		list       = fs.Bool("list", false, "list experiment IDs and exit")
		requests   = fs.Int("requests", 0, "requests per trace replay (default 12000); fig2 scales its codec corpus with it")
		volumeMiB  = fs.Int("volume", 0, "logical volume size in MiB (default 256)")
		seed       = fs.Int64("seed", 0, "seed offset for all generators")
		format     = fs.String("format", "table", "output format: table, csv, json")
		workers    = fs.Int("workers", 0, "codec work: >1 = on the shared pool of GOMAXPROCS workers, 1 = inline (0 = GOMAXPROCS; results are identical for any value)")
		shards     = fs.Int("shards", 0, "LBA shards per replay: n > 1 partitions the volume across n independent pipelines run concurrently (changes the simulated system; deterministic for fixed n)")
		faults     = fs.String("faults", "", "JSON fault plan injected into every replay (see DESIGN.md §11; deterministic for a fixed plan seed)")
		maintOn    = fs.Bool("maint", false, "enable temperature-aware background maintenance (default policy) in every replay (see DESIGN.md §13; deterministic for a fixed seed)")
		dedupOn    = fs.Bool("dedup", false, "enable content-addressed deduplication (default policy) in every replay (see DESIGN.md §14; deterministic for a fixed seed)")
		dupRatio   = fs.Float64("dup-ratio", 0, "fraction of payload content regions cloned from a small pool (0 = stock profile; pair with -dedup to give the content index something to find)")
		dupUni     = fs.Int("dup-universe", 0, "distinct clone payloads the -dup-ratio pool draws from (default 64)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")

		serve   = fs.Bool("serve", false, "run an open-loop serve workload (requires -spec) instead of an experiment")
		spec    = fs.String("spec", "", "with -serve: workload spec — a file path, or inline DSL with ';' separating steps (e.g. \"d=2s qps=500 rw=0.5; qps=2000\")")
		clients = fs.Int("clients", 0, "with -serve: client goroutines offering load (default 8)")

		replayWl    = fs.String("replay", "", "run one instrumented replay of the named workload (fin1, fin2, usr0, prxy0) instead of an experiment")
		scheme      = fs.String("scheme", "EDC", "compression scheme for -replay and -serve (Native, Lzf, Lz4, Gzip, Bzip2, EDC, EDC+)")
		traceOut    = fs.String("trace-out", "", "with -replay: write one JSONL decision event per line to this file (\"-\" = stdout)")
		seriesOut   = fs.String("series-out", "", "with -replay: write the sampled time series as JSON to this file")
		seriesEvery = fs.Duration("series-interval", time.Second, "time-series bin width for -series-out")
		metricsOut  = fs.String("metrics-out", "", "with -replay: write decision counters in Prometheus text format to this file (\"-\" = stdout)")
		jsonOut     = fs.Bool("json", false, "with -replay: print the result as machine-readable JSON instead of the text report")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return errUsage
	}

	var plan *edc.FaultPlan
	if *faults != "" {
		p, err := edc.ParseFaultPlan(*faults)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		plan = p
	}

	// One Params carries the flags every mode shares.
	p := bench.Params{Requests: *requests, VolumeMiB: *volumeMiB, Seed: *seed, Workers: *workers, Shards: *shards, Faults: plan, Maint: *maintOn,
		Dedup: *dedupOn, DupRatio: *dupRatio, DupUniverse: *dupUni}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			if werr := writeHeapProfile(*memProfile); err == nil {
				err = werr
			}
		}()
	}

	switch {
	case *serve:
		return runServe(bench.ServeParams{Params: p, Clients: *clients, Scheme: *scheme},
			*spec, *format, *jsonOut, stdout)
	case *replayWl != "":
		return runReplay(p, *replayWl, edc.Scheme(*scheme), replayOutputs{
			traceOut:    *traceOut,
			seriesOut:   *seriesOut,
			seriesEvery: *seriesEvery,
			metricsOut:  *metricsOut,
			jsonOut:     *jsonOut,
		}, stdout)
	case *list:
		desc := bench.Describe()
		ids := bench.Experiments()
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(stdout, "%-18s %s\n", id, desc[id])
		}
		return nil
	}
	start := time.Now()
	var tables []*bench.Table
	if *experiment == "" {
		tables, err = bench.RunAll(p)
	} else {
		tables, err = bench.Run(*experiment, p)
	}
	if werr := bench.WriteTables(stdout, tables, *format); werr != nil {
		return werr
	}
	if err != nil {
		return err
	}
	if *format == "table" {
		fmt.Fprintf(stdout, "done in %v\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// writeHeapProfile writes the steady-state heap to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize the steady-state heap
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
