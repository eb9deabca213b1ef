package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"edc/internal/compress"
)

// TestStatsTablesCoverEveryCounter holds runStats and tenantStats to the
// structs they declare: every integer or duration field, nested structs'
// included, has exactly one row — so a new counter cannot miss the
// merge or the reports — and every row's field exists.
func TestStatsTablesCoverEveryCounter(t *testing.T) {
	checkStatsTable(t, runStats)
	checkStatsTable(t, tenantStats)
}

func checkStatsTable[S any](t *testing.T, table []stat[S]) {
	t.Helper()
	rows := map[string]int{}
	var zero S
	for i := range table {
		r := &table[i]
		if r.field == "" {
			continue
		}
		rows[r.field]++
		if !r.fieldOf(&zero).IsValid() {
			t.Errorf("%T: row names field %q, which does not exist", zero, r.field)
		}
	}
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Struct:
				walk(prefix+f.Name+".", f.Type)
			case reflect.Int, reflect.Int64:
				if n := rows[prefix+f.Name]; n != 1 {
					t.Errorf("%T: field %s%s has %d rows, want 1", zero, prefix, f.Name, n)
				}
			}
		}
	}
	walk("", reflect.TypeOf(zero))
}

// TestRunStatsJSONIsReport holds every JSON encoding of a RunStats —
// by pointer, by value, as a field — to its Report.
func TestRunStatsJSONIsReport(t *testing.T) {
	rs := newRunStats("EDC", "t", "b")
	rs.Requests, rs.RunsByTag[compress.TagLZF] = 3, 2
	rs.Resp.Observe(time.Millisecond)
	rs.Tenant("web").Requests = 3
	report, err := json.Marshal(rs.Report())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		v    any
		want []byte
	}{
		{"pointer", rs, report},
		{"value", *rs, report},
		{"field", struct{ R RunStats }{*rs}, fmt.Appendf(nil, `{"R":%s}`, report)},
	} {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s: %s\nwant %s", c.name, got, c.want)
		}
	}
}
