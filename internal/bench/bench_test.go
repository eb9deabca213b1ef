package bench

import (
	"bytes"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"edc/internal/race"
)

// tiny keeps test replays fast.
var tiny = Params{Requests: 800, VolumeMiB: 128}

// TestExperimentsRegistered holds the registry to every experiment, in
// the order RunAll runs them.
func TestExperimentsRegistered(t *testing.T) {
	ids := Experiments()
	want := []string{
		"ablation-sd", "ablation-sampling", "ablation-slots", "dedup",
		"fig8", "fig9", "fig10", "fig11", "fig12",
		"ext-cache", "ext-hints", "ext-endurance", "ext-energy", "ext-hdd", "ext-tail",
		"maint", "fig1", "fig2", "fig3", "qos", "tab1", "tab2",
	}
	if !slices.Equal(ids, want) {
		t.Errorf("registered experiments\n %q\nwant\n %q", ids, want)
	}
	desc := Describe()
	for _, id := range ids {
		if desc[id] == "" {
			t.Errorf("experiment %q has no description", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", tiny); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "a    bbbb", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTab1(t *testing.T) {
	tables, err := Run("tab1", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) < 5 {
		t.Fatalf("tab1 = %+v", tables)
	}
}

func TestTab2ColumnsPlausible(t *testing.T) {
	tables, err := Run("tab2", tiny)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("tab2 rows = %d", len(rows))
	}
	readPct := map[string]float64{"Fin1": 23, "Fin2": 82, "Usr_0": 60, "Prxy_0": 3}
	for _, row := range rows {
		want := readPct[row[0]]
		got, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if got < want-6 || got > want+6 {
			t.Errorf("%s read%% = %v; want ~%v", row[0], got, want)
		}
	}
}

func TestFig1Linear(t *testing.T) {
	tables, err := Run("fig1", tiny)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	// Normalized read latency should grow with size, roughly linearly.
	prev := 0.0
	for i, row := range rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v <= prev {
			t.Fatalf("row %d: normalized latency %v not increasing", i, v)
		}
		prev = v
	}
	last, _ := strconv.ParseFloat(rows[len(rows)-1][3], 64)
	sizeKiB, _ := strconv.ParseFloat(rows[len(rows)-1][0], 64)
	lin := last / (sizeKiB / 4)
	if lin < 0.7 || lin > 1.3 {
		t.Fatalf("linearity = %v; want ~1", lin)
	}
}

// TestFig2Ordering holds the linux-src ratio ordering at the full 16 MiB
// corpus; the race detector, which finds nothing in single-goroutine
// codec code, checks it on tiny's 1 MiB.
func TestFig2Ordering(t *testing.T) {
	p := Params{}
	if race.Enabled {
		p = tiny
	}
	if got, want := fig2Corpus(p), 16<<20; !race.Enabled && got != want {
		t.Fatalf("fig2 corpus %d bytes at the default size, want %d", got, want)
	}
	tables, err := Run("fig2", p)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows // 4 codecs x 2 datasets; first 4 are linux-src
	ratio := func(i int) float64 {
		v, err := strconv.ParseFloat(rows[i][2], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// rows: lzf, lz4, gz, bwz
	if !(ratio(3) > ratio(2) && ratio(2) > ratio(0) && ratio(0) > 1) {
		t.Fatalf("linux-src ratio ordering violated: lzf=%v gz=%v bwz=%v", ratio(0), ratio(2), ratio(3))
	}
}

func TestFig3Bursty(t *testing.T) {
	tables, err := Run("fig3", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig3 tables = %d", len(tables))
	}
	pm, err := strconv.ParseFloat(tables[0].Rows[0][3], 64)
	if err != nil {
		t.Fatal(err)
	}
	if pm < 2 {
		t.Fatalf("Fin1 peak/mean = %v; want bursty", pm)
	}
}

// evalValue reads scheme x trace-average from an eval figure.
func evalValue(t *testing.T, tab *Table, scheme string) float64 {
	t.Helper()
	return evalCell(t, tab, scheme, "average")
}

// evalCell reads scheme x column (a trace name, or "average") from an
// eval figure.
func evalCell(t *testing.T, tab *Table, scheme, column string) float64 {
	t.Helper()
	for _, row := range tab.Rows {
		if row[0] != scheme {
			continue
		}
		for i, h := range tab.Header {
			if h == column {
				v, err := strconv.ParseFloat(row[i], 64)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
	}
	t.Fatalf("no cell for scheme %s, column %s", scheme, column)
	return 0
}

func TestFig8Fig10Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full eval sweep")
	}
	t8, err := Run("fig8", tiny)
	if err != nil {
		t.Fatal(err)
	}
	t10, err := Run("fig10", tiny)
	if err != nil {
		t.Fatal(err)
	}
	// Ratio: Bzip2 > Gzip > Lzf > 1; EDC above 1.
	if !(evalValue(t, t8[0], "Bzip2") > evalValue(t, t8[0], "Gzip") &&
		evalValue(t, t8[0], "Gzip") > evalValue(t, t8[0], "Lzf") &&
		evalValue(t, t8[0], "Lzf") > 1 && evalValue(t, t8[0], "EDC") > 1) {
		t.Fatalf("fig8 ordering violated: %+v", t8[0].Rows)
	}
	// Response: Bzip2 worst; EDC best among compression schemes.
	if !(evalValue(t, t10[0], "Bzip2") > evalValue(t, t10[0], "Gzip") &&
		evalValue(t, t10[0], "EDC") < evalValue(t, t10[0], "Gzip") &&
		evalValue(t, t10[0], "EDC") <= evalValue(t, t10[0], "Lzf")*1.05) {
		t.Fatalf("fig10 ordering violated: %+v", t10[0].Rows)
	}
}

// TestFig10ClaimsHold ties the fig10 sentences in DESIGN.md §8 and
// EXPERIMENTS.md to the generated table: EDC responds no slower than
// Gzip and Bzip2 on every trace and no slower than Lzf on Fin1, Fin2 and
// Prxy_0; on Usr_0 always-on Lzf is faster, and the docs say so. The
// sentences claim that shape, not the decimals, and it already holds at
// a quarter of the default request count (it does not at `tiny`). If the
// Usr_0 exception ever goes away this fails too: the docs then need the
// sentence removed, not the test.
func TestFig10ClaimsHold(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("a 3000-request sweep of every scheme; the claim is about numbers, not concurrency")
	}
	tables, err := Run("fig10", Params{Requests: 3000})
	if err != nil {
		t.Fatal(err)
	}
	cell := func(scheme, trace string) float64 { return evalCell(t, tables[0], scheme, trace) }
	for _, tr := range traceOrder {
		edcResp := cell("EDC", tr)
		for _, heavy := range []string{"Gzip", "Bzip2"} {
			if v := cell(heavy, tr); edcResp > v {
				t.Errorf("%s: EDC %.2f slower than %s %.2f — the docs say never", tr, edcResp, heavy, v)
			}
		}
		lzf := cell("Lzf", tr)
		if exception := tr == "Usr_0"; exception != (lzf < edcResp) {
			t.Errorf("%s: Lzf %.2f vs EDC %.2f — the docs name Usr_0 as the one trace where Lzf is faster", tr, lzf, edcResp)
		}
	}
	for _, doc := range []string{"../../DESIGN.md", "../../EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(text, []byte("TestFig10ClaimsHold")) {
			t.Errorf("%s no longer names this test beside its fig10 claim", doc)
		}
		for _, stale := range []string{"lowest on every trace group", "reproduces on every trace"} {
			if bytes.Contains(text, []byte(stale)) {
				t.Errorf("%s says %q; fig10 has Lzf below EDC on Usr_0", doc, stale)
			}
		}
	}
}

func TestFig12Monotonicity(t *testing.T) {
	tables, err := Run("fig12", tiny)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	firstRatio, _ := strconv.ParseFloat(rows[0][2], 64)
	lastRatio, _ := strconv.ParseFloat(rows[len(rows)-1][2], 64)
	if lastRatio <= firstRatio {
		t.Fatalf("ratio did not grow with gz share: %v -> %v", firstRatio, lastRatio)
	}
	firstShare, _ := strconv.ParseFloat(rows[0][1], 64)
	lastShare, _ := strconv.ParseFloat(rows[len(rows)-1][1], 64)
	if lastShare <= firstShare {
		t.Fatalf("gz share did not grow: %v -> %v", firstShare, lastShare)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation replays")
	}
	for _, id := range []string{"ablation-sd", "ablation-sampling", "ablation-slots"} {
		tables, err := Run(id, tiny)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables[0].Rows) != 2 {
			t.Fatalf("%s: rows = %d", id, len(tables[0].Rows))
		}
	}
}

func TestAblationSDImprovesRatio(t *testing.T) {
	tables, err := Run("ablation-sd", tiny)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	with, _ := strconv.ParseFloat(rows[0][3], 64)
	without, _ := strconv.ParseFloat(rows[1][3], 64)
	if with < without {
		t.Fatalf("SD should not hurt ratio: with=%v without=%v", with, without)
	}
}

func TestWriteTablesFormats(t *testing.T) {
	tables := []*Table{{
		ID: "x", Title: "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}}
	var buf bytes.Buffer
	if err := WriteTables(&buf, tables, "csv"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a,b\n1,2") {
		t.Fatalf("csv output wrong:\n%s", buf.String())
	}
	buf.Reset()
	if err := WriteTables(&buf, tables, "json"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ID": "x"`) {
		t.Fatalf("json output wrong:\n%s", buf.String())
	}
	buf.Reset()
	if err := WriteTables(&buf, tables, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "== x: demo ==") {
		t.Fatalf("table output wrong:\n%s", buf.String())
	}
	if err := WriteTables(&buf, tables, "xml"); err == nil {
		t.Fatal("unknown format should fail")
	}
}

func TestExtensionsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("extension replays")
	}
	wantRows := map[string]int{
		"ext-hints":     2,
		"ext-endurance": 5,
		"ext-energy":    5,
		"ext-hdd":       5,
		"ext-cache":     4,
		"ext-tail":      5,
	}
	for id, rows := range wantRows {
		tables, err := Run(id, tiny)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) != 1 || len(tables[0].Rows) != rows {
			t.Fatalf("%s: rows = %d; want %d", id, len(tables[0].Rows), rows)
		}
	}
}

func TestExtCacheMonotone(t *testing.T) {
	tables, err := Run("ext-cache", tiny)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	first, _ := strconv.ParseFloat(rows[0][1], 64)
	last, _ := strconv.ParseFloat(rows[len(rows)-1][1], 64)
	if last <= first {
		t.Fatalf("hit rate did not grow with cache size: %v -> %v", first, last)
	}
}
