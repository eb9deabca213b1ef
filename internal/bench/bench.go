// Package bench regenerates every table and figure of the paper's
// evaluation (Sec. IV). Each experiment is identified by the paper's
// label (tab1, tab2, fig1, fig2, fig3, fig8, fig9, fig10, fig11, fig12)
// plus three ablations beyond the paper (ablation-sd, ablation-sampling,
// ablation-slots). The cmd/edcbench tool and the repository-level
// bench_test.go both drive this package.
//
// Absolute numbers will not match the authors' 2010-era testbed — the
// backend is a simulator — but the shapes (who wins, by roughly what
// factor, where the knees fall) reproduce; EXPERIMENTS.md records
// paper-vs-measured for every experiment.
package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"edc"
)

// Params sizes an experiment run. Zero values select defaults tuned to
// finish the full suite in a few minutes.
type Params struct {
	// Requests per trace replay (default 12000). fig2 scales its codec
	// corpus with it: 16 MiB per dataset at 12 000 and above.
	Requests int
	// VolumeMiB is the logical volume size (default 256).
	VolumeMiB int
	// Seed offsets all generator seeds (default 0: the published seeds).
	Seed int64
	// Workers is passed to edc.WithReplayWorkers (default 0: GOMAXPROCS):
	// above 1, codec work runs on the process-wide pool of GOMAXPROCS
	// workers; 1 runs it inline. Results are identical for any setting.
	Workers int
	// Shards is the LBA-shard count passed to edc.WithShards (default 0:
	// the stock single pipeline). Unlike Workers, n > 1 changes the
	// simulated system (n independent devices over disjoint LBA ranges),
	// so results differ from the single-pipeline numbers — but remain
	// deterministic for a fixed n.
	Shards int
	// Faults attaches a deterministic fault-injection plan to every
	// replay (edc.WithFaults). Nil injects nothing; a non-nil plan
	// changes the simulated system but keeps results deterministic for
	// a fixed plan seed.
	Faults *edc.FaultPlan
	// Maint enables temperature-aware background maintenance with its
	// default policy on every replay (edc.WithMaintenance). False runs
	// no maintenance and reproduces the historical numbers exactly.
	Maint bool
	// Dedup enables content-addressed deduplication with its default
	// policy on every replay (edc.WithDedup). False runs no dedup and
	// reproduces the historical numbers exactly.
	Dedup bool
	// DupRatio / DupUniverse override the payload generator's content
	// duplication knobs on every replay (edc.DataProfile.WithDup): a
	// DupRatio fraction of content regions are clones drawn from a pool
	// of DupUniverse distinct payloads. Zero keeps the stock profile
	// (no injected duplication).
	DupRatio    float64
	DupUniverse int
}

func (p Params) requests() int {
	if p.Requests <= 0 {
		return 12000
	}
	return p.Requests
}

func (p Params) volume() int64 {
	if p.VolumeMiB <= 0 {
		return 256 << 20
	}
	return int64(p.VolumeMiB) << 20
}

// options is the one translation of p into facade options, shared by
// every mode that builds a System — the experiments' replay cells,
// RunServe and edcbench -replay: scheme s with enterprise payloads
// seeded by dataSeed on the single-SSD model (an array backend: five of
// the array member model; the disk: the stock one), then the overlay
// fields.
func (p Params) options(s edc.Scheme, backend edc.BackendKind, dataSeed int64) []edc.Option {
	prof := edc.DataProfiles()["enterprise"]
	if p.DupRatio > 0 {
		prof = prof.WithDup(p.DupRatio, p.DupUniverse)
	}
	ssdCfg, devices := singleSSDConfig(), 1
	if backend == edc.RAIS0 || backend == edc.RAIS5 {
		ssdCfg, devices = raisSSDConfig(), 5
	}
	opts := []edc.Option{
		edc.WithScheme(s),
		edc.WithDataProfile(prof, dataSeed),
		edc.WithBackend(backend, devices),
		edc.WithSSDConfig(ssdCfg),
		edc.WithShards(p.Shards),
		edc.WithFaults(p.Faults),
	}
	if p.Workers != 0 {
		opts = append(opts, edc.WithReplayWorkers(p.Workers))
	}
	if p.Maint {
		opts = append(opts, edc.WithMaintenance(edc.Maintenance{}))
	}
	if p.Dedup {
		opts = append(opts, edc.WithDedup(edc.Dedup{}))
	}
	return opts
}

// Table is one rendered result table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// FprintCSV renders the table as CSV with an id/title comment line.
func (t *Table) FprintCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteTables renders tables in the requested format: "table" (aligned
// text), "csv", or "json".
func WriteTables(w io.Writer, tables []*Table, format string) error {
	switch format {
	case "", "table":
		for _, t := range tables {
			t.Fprint(w)
		}
		return nil
	case "csv":
		for _, t := range tables {
			if err := t.FprintCSV(w); err != nil {
				return err
			}
		}
		return nil
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(tables)
	default:
		return fmt.Errorf("bench: unknown output format %q", format)
	}
}

// experiment produces one or more tables.
type experiment struct {
	id    string
	title string
	run   func(Params) ([]*Table, error)
}

// registry is filled by init functions and only read after.
var registry []experiment

func register(id, title string, run func(Params) ([]*Table, error)) {
	registry = append(registry, experiment{id: id, title: title, run: run})
}

// registerCells registers a replay experiment: a declared list of cells
// and render, which turns their results, in order, into its table.
func registerCells(id, title string, cells func(Params) []cell, render func(Params, []*edc.Results) *Table) {
	register(id, title, func(p Params) ([]*Table, error) {
		res, err := runCells(cells(p))
		if err != nil {
			return nil, err
		}
		return []*Table{render(p, res)}, nil
	})
}

// Experiments lists the registered experiment IDs in run order.
func Experiments() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Describe returns id -> title.
func Describe() map[string]string {
	out := make(map[string]string, len(registry))
	for _, e := range registry {
		out[e.id] = e.title
	}
	return out
}

// Run executes one experiment by ID.
func Run(id string, p Params) ([]*Table, error) {
	i := slices.IndexFunc(registry, func(e experiment) bool { return e.id == id })
	if i < 0 {
		known := Experiments()
		sort.Strings(known)
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(known, ", "))
	}
	return registry[i].run(p)
}

// RunAll executes every experiment in registration order.
func RunAll(p Params) ([]*Table, error) {
	var out []*Table
	for _, id := range Experiments() {
		ts, err := Run(id, p)
		if err != nil {
			return out, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, ts...)
	}
	return out, nil
}

// f2 formats a float with 2 decimals; f1/f3 likewise.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
