package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// compareMain implements `perf compare a.jsonl b.jsonl`: a is the
// parent's runs, b the change's, both written with --out. Runs are
// paired by (workload, seed, occurrence), so the seed-to-seed difference
// in the inputs cancels out of every comparison. It prints one row per
// workload and end-to-end metric and returns 1 if any row is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perf compare parent.jsonl change.jsonl")
		return 2
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf compare: %v\n", err)
		return 2
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf compare: %v\n", err)
		return 2
	}
	rows := compareRuns(a, b)
	printComparison(rows)
	for _, r := range rows {
		if r.verdict == worse {
			return 1
		}
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22) // a traced record is one long line
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// row is one workload x metric cell of the comparison.
type row struct {
	workload, metric, unit string
	pairs                  int
	a, b                   quartiles // the two sides' own distributions
	// worsening is the paired relative change of b against a, signed so
	// that positive is worse, as quartiles over the pairs.
	worsening quartiles
	bound     float64
	moved     bool // an exact metric whose paired values differ
	verdict   verdict
}

type quartiles struct{ q1, med, q3 float64 }

// quartilesOf matches Python's statistics.quantiles(values, n=4): the
// exclusive method, which is what the driver computes spreads with.
func quartilesOf(vs []float64) quartiles {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return quartiles{}
	}
	if n == 1 {
		return quartiles{s[0], s[0], s[0]}
	}
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return quartiles{at(1), at(2), at(3)}
}

// judge applies the choosing-metrics rule to the paired worsenings ws
// (positive is worse) of one cell. moved reports an exact metric whose
// pairs are not all identical.
func judge(ws []float64, bound float64, exact bool) (v verdict, moved bool) {
	allWorse, allBetter, wins, differ := true, true, 0, false
	for _, w := range ws {
		if w != 0 {
			differ = true
		}
		if w <= 0 {
			allWorse = false
		}
		if w >= 0 {
			allBetter = false
		}
		if w < 0 {
			wins++
		}
	}
	if exact && !differ {
		return same, false
	}
	moved = exact
	q := quartilesOf(ws)
	spread := q.q3 - q.q1
	switch {
	case spread > bound:
		// Too noisy for the bound to decide, unless one side beats the
		// other on every pair.
		switch {
		case allBetter:
			return better, moved
		case allWorse && q.med > bound:
			return worse, moved
		case allWorse:
			return same, moved
		}
		return unresolved, moved
	case q.med > bound:
		return worse, moved
	case -q.med > spread && wins*10 >= len(ws)*9:
		return better, moved
	}
	return same, moved
}

func compareRuns(a, b []record) []row {
	type key struct {
		workload string
		seed     int64
		nth      int
	}
	index := func(recs []record) map[key]record {
		seen := map[key]int{} // occurrences so far, keyed with nth 0
		m := map[key]record{}
		for _, r := range recs {
			k := key{workload: r.Workload, seed: r.Seed}
			k.nth = seen[k]
			seen[key{workload: r.Workload, seed: r.Seed}]++
			m[k] = r
		}
		return m
	}
	ma, mb := index(a), index(b)
	keys := make([]key, 0, len(ma))
	for k := range ma {
		if _, ok := mb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].seed != keys[j].seed {
			return keys[i].seed < keys[j].seed
		}
		return keys[i].nth < keys[j].nth
	})
	if unpaired := len(ma) + len(mb) - 2*len(keys); unpaired > 0 {
		fmt.Fprintf(os.Stderr, "perf compare: %d runs have no partner with the same workload and seed; ignored\n", unpaired)
	}

	var rows []row
	for _, w := range workloads {
		for _, m := range endToEnd {
			var va, vb, ws []float64
			for _, k := range keys {
				if k.workload != w.name {
					continue
				}
				x, okx := ma[k].Metrics[m.name]
				y, oky := mb[k].Metrics[m.name]
				if !okx || !oky || x.Value == 0 {
					continue
				}
				va, vb = append(va, x.Value), append(vb, y.Value)
				rel := (y.Value - x.Value) / x.Value
				if m.higherBetter {
					rel = -rel
				}
				ws = append(ws, rel)
			}
			if len(ws) == 0 {
				continue
			}
			r := row{workload: w.name, metric: m.name, unit: m.unit, pairs: len(ws),
				a: quartilesOf(va), b: quartilesOf(vb), worsening: quartilesOf(ws), bound: m.bound}
			r.verdict, r.moved = judge(ws, m.bound, m.exact)
			rows = append(rows, r)
		}
	}
	return rows
}

func printComparison(rows []row) {
	fmt.Printf("%-18s %-21s %5s  %-38s %-38s %-26s %6s  %s\n",
		"workload", "metric", "pairs", "parent q1/median/q3", "change q1/median/q3", "paired worsening q1/med/q3", "bound", "verdict")
	for _, r := range rows {
		v := string(r.verdict)
		if r.moved {
			v += " (exact metric moved)"
		}
		fmt.Printf("%-18s %-21s %5d  %-38s %-38s %-26s %5.1f%%  %s\n",
			r.workload, r.metric, r.pairs,
			fmt.Sprintf("%.5g/%.5g/%.5g %s", r.a.q1, r.a.med, r.a.q3, r.unit),
			fmt.Sprintf("%.5g/%.5g/%.5g %s", r.b.q1, r.b.med, r.b.q3, r.unit),
			fmt.Sprintf("%+.2f%%/%+.2f%%/%+.2f%%", 100*r.worsening.q1, 100*r.worsening.med, 100*r.worsening.q3),
			100*r.bound, v)
	}
}
