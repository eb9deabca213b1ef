// Command perf is the repository's benchmark harness: four fixed
// workloads, eight end-to-end metrics each, and a traced pass that
// prices every layer by replaying its inputs from outside. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	perf --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//	perf compare A.jsonl B.jsonl
//	perf selfcheck [--seed N] [--seconds S]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of an --out file: the result plus what produced it,
// the form `perf compare` reads.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Host     host   `json:"host"`
	result
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	selfCheck := len(os.Args) > 1 && os.Args[1] == "selfcheck"
	if selfCheck {
		os.Args = append(os.Args[:1], os.Args[2:]...)
	}
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed the request stream is generated from")
		seconds = flag.Int("seconds", 10, "sizes the run: operations = the workload's pinned rate x seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
		out     = flag.String("out", "", "append the result as one JSON line to this file (input to perf compare)")
	)
	flag.Parse()
	if selfCheck {
		os.Exit(selfCheckMain(*seed, *seconds))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perf: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || *seconds > 60 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perf: need 1 <= --seconds <= 60, --trace 0 or 1, and no positional arguments")
		os.Exit(2)
	}

	h := hostFingerprint()
	fmt.Printf("workload %s  seed %d  seconds %d  trace %d\n", w.name, *seed, *seconds, *traced)
	fmt.Printf("host: %d cores, GOMAXPROCS %d, %s, %s\n", h.Cores, h.GoMaxProcs, h.GoVersion, h.CPU)

	var (
		res result
		err error
	)
	if *traced == 1 {
		res, err = runTraced(w, *seed, w.rate**seconds/w.traceDiv)
	} else {
		res, err = runEndToEnd(w, *seed, w.rate**seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traced, Host: h, result: res}); err != nil {
			fmt.Fprintf(os.Stderr, "perf: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// endToEnd names the eight end-to-end metrics, in report order, with
// their units, which way is better, and the share of the parent's median
// a change may worsen them by (BENCHMARK.json carries the same bounds; a
// test keeps the two in step). exact marks the model outputs: for a
// given seed they repeat to the last digit and move only when a decision
// changes, never with the speed of the host.
var endToEnd = []struct {
	name, unit   string
	higherBetter bool
	bound        float64
	exact        bool
}{
	{"setup_s", "s", false, 0.25, false},
	{"ops_per_s", "1/s", true, 0.2, false},
	{"cpu_us_per_op", "us", false, 0.2, false},
	{"alloc_b_per_op", "B", false, 0.08, false},
	{"live_heap_mb", "MiB", false, 0.15, false},
	{"virt_mean_resp_us", "us", false, 0.04, true},
	{"virt_p99_resp_us", "us", false, 0.06, true},
	{"stored_per_user_byte", "ratio", false, 0.05, true},
}

// endToEndValues derives the eight metrics from one pass.
func endToEndValues(p *pass) map[string]float64 {
	ops := float64(p.ops)
	v := map[string]float64{
		"setup_s":        median(p.setup),
		"ops_per_s":      ops / p.timed.wall.Seconds(),
		"cpu_us_per_op":  float64(p.timed.cpu.Microseconds()) / ops,
		"alloc_b_per_op": float64(p.timed.alloc) / ops,
		"live_heap_mb":   float64(p.liveHeap) / mib,
	}
	if n := len(p.segWall); n > 0 {
		per := ops / float64(n)
		v["ops_per_s"] = per / median(p.segWall)
		v["cpu_us_per_op"] = median(p.segCPU) * 1e6 / per
	}
	if res := p.res; res != nil {
		v["virt_mean_resp_us"] = float64(res.Resp.Mean()) / 1e3
		v["virt_p99_resp_us"] = p99(res.Resp)
		if res.LiveBlocks > 0 {
			v["stored_per_user_byte"] = float64(res.LiveSlotBytes) / float64(res.LiveBlocks*4096)
		}
	}
	return v
}

func runEndToEnd(w *spec, seed int64, ops int) (result, error) {
	p, err := w.run(seed, ops, nil, false)
	if err != nil {
		return result{}, err
	}
	vals := endToEndValues(p)
	res := result{Correct: p.failed == 0, Attempted: p.ops, Failed: p.failed, Metrics: map[string]metric{}}
	fmt.Printf("timed region: %d ops in %.3f s wall, %.3f s cpu", p.ops, p.timed.wall.Seconds(), p.timed.cpu.Seconds())
	if p.res != nil {
		fmt.Printf("; %d response samples, %d beyond p99", p.res.Resp.Count(), p.res.Resp.Count()/100)
	}
	fmt.Println()
	for _, m := range endToEnd {
		val, ok := vals[m.name]
		if !ok || val <= 0 {
			p.fail("metric %s missing or not positive", m.name)
			res.Correct, res.Failed = false, p.failed
		}
		res.Metrics[m.name] = metric{Value: val, Unit: m.unit}
		fmt.Printf("  %-22s %16.6f %s\n", m.name, val, m.unit)
	}
	if p.failed > 0 {
		fmt.Printf("FAILED: %d of %d operations: %s\n", p.failed, p.ops, p.why)
	}
	return res, nil
}

// printLayers prints the per-layer table in name order; metrics whose
// layer did not run on this workload print n/a (and report 0).
func printLayers(vals map[string]float64, ran map[string]bool) {
	names := make([]string, 0, len(perLayer))
	for name := range perLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !ran[name] {
			fmt.Printf("  %-34s %16s %s\n", name, "n/a", perLayer[name])
			continue
		}
		fmt.Printf("  %-34s %16.6f %s\n", name, vals[name], perLayer[name])
	}
}
