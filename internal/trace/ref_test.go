package trace_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"edc/internal/trace"
	"edc/internal/workload"
)

// This file keeps the two parsers and two writers as they were before
// trace.go was rewritten for speed — strings.Split and a TrimSpace per
// field, fmt.Fprintf per record, an unconditional stable sort — as the
// definition of the requests and bytes the fast ones must reproduce. (The
// old parsers' acceptance of timestamps and offsets that overflow, and of
// MSR records older than the first, is the bug fixed alongside; the
// differential stays off those inputs.)

func refParseSPC(r io.Reader, name string) (*trace.Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	t := &trace.Trace{Name: name}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) < 5 {
			return nil, fmt.Errorf("%w: line %d: %q", trace.ErrFormat, lineNo, line)
		}
		lba, err1 := strconv.ParseInt(strings.TrimSpace(f[1]), 10, 64)
		size, err2 := strconv.ParseInt(strings.TrimSpace(f[2]), 10, 64)
		ts, err3 := strconv.ParseFloat(strings.TrimSpace(f[4]), 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%w: line %d: %q", trace.ErrFormat, lineNo, line)
		}
		op := strings.ToLower(strings.TrimSpace(f[3]))
		if op != "r" && op != "w" {
			return nil, fmt.Errorf("%w: line %d: opcode %q", trace.ErrFormat, lineNo, f[3])
		}
		if size <= 0 || lba < 0 || ts < 0 {
			return nil, fmt.Errorf("%w: line %d: negative field", trace.ErrFormat, lineNo)
		}
		tenant := ""
		for _, extra := range f[5:] {
			if v, ok := strings.CutPrefix(strings.TrimSpace(extra), "tenant="); ok {
				tenant = v
			}
		}
		t.Requests = append(t.Requests, trace.Request{
			Arrival: time.Duration(ts * float64(time.Second)),
			Offset:  lba * trace.SectorSize,
			Size:    size,
			Write:   op == "w",
			Tenant:  tenant,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(t.Requests, func(i, j int) bool {
		return t.Requests[i].Arrival < t.Requests[j].Arrival
	})
	return t, nil
}

func refWriteSPC(w io.Writer, t *trace.Trace) error {
	bw := bufio.NewWriter(w)
	for _, r := range t.Requests {
		op := "r"
		if r.Write {
			op = "w"
		}
		var err error
		if r.Tenant != "" {
			_, err = fmt.Fprintf(bw, "0,%d,%d,%s,%.6f,tenant=%s\n",
				r.Offset/trace.SectorSize, r.Size, op, r.Arrival.Seconds(), r.Tenant)
		} else {
			_, err = fmt.Fprintf(bw, "0,%d,%d,%s,%.6f\n",
				r.Offset/trace.SectorSize, r.Size, op, r.Arrival.Seconds())
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

func refParseMSR(r io.Reader, name string) (*trace.Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	t := &trace.Trace{Name: name}
	lineNo := 0
	var base int64 = -1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) < 6 {
			return nil, fmt.Errorf("%w: line %d: %q", trace.ErrFormat, lineNo, line)
		}
		ts, err1 := strconv.ParseInt(strings.TrimSpace(f[0]), 10, 64)
		off, err2 := strconv.ParseInt(strings.TrimSpace(f[4]), 10, 64)
		size, err3 := strconv.ParseInt(strings.TrimSpace(f[5]), 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%w: line %d: %q", trace.ErrFormat, lineNo, line)
		}
		var write bool
		switch strings.ToLower(strings.TrimSpace(f[3])) {
		case "write", "w":
			write = true
		case "read", "r":
			write = false
		default:
			return nil, fmt.Errorf("%w: line %d: type %q", trace.ErrFormat, lineNo, f[3])
		}
		if size <= 0 || off < 0 {
			return nil, fmt.Errorf("%w: line %d: negative field", trace.ErrFormat, lineNo)
		}
		if base < 0 {
			base = ts
		}
		tenant := strings.TrimSpace(f[1])
		if tenant == "edc" {
			tenant = ""
		}
		t.Requests = append(t.Requests, trace.Request{
			Arrival: time.Duration(ts-base) * 100 * time.Nanosecond,
			Offset:  off,
			Size:    size,
			Write:   write,
			Tenant:  tenant,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(t.Requests, func(i, j int) bool {
		return t.Requests[i].Arrival < t.Requests[j].Arrival
	})
	return t, nil
}

func refWriteMSR(w io.Writer, t *trace.Trace) error {
	bw := bufio.NewWriter(w)
	for _, r := range t.Requests {
		typ := "Read"
		if r.Write {
			typ = "Write"
		}
		host := r.Tenant
		if host == "" {
			host = "edc"
		}
		ticks := r.Arrival.Nanoseconds() / 100
		if _, err := fmt.Fprintf(bw, "%d,%s,0,%s,%d,%d,0\n",
			ticks, host, typ, r.Offset, r.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// corpus is the differential's input: 4 000 generated requests from each
// of the four workload profiles, untagged and with tenants (names in
// runs, the synthetic default among them).
func corpus(t testing.TB) []*trace.Trace {
	t.Helper()
	const volume = 1 << 30
	tenants := []string{"gold", "gold", "", "bronze", "tenant=odd", "edc"}
	var out []*trace.Trace
	for i, p := range []workload.Profile{
		workload.Fin1(volume), workload.Fin2(volume), workload.Usr0(volume), workload.Prxy0(volume),
	} {
		plain, err := p.GenerateN(4000, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		tagged := plain.Clip(len(plain.Requests))
		tagged.Name += "-tagged"
		for j := range tagged.Requests {
			tagged.Requests[j].Tenant = tenants[j/3%len(tenants)]
		}
		out = append(out, plain, tagged)
	}
	return out
}

type format struct {
	name              string
	write, refWrite   func(io.Writer, *trace.Trace) error
	parse, refParse   func(io.Reader, string) (*trace.Trace, error)
	malformed, ragged []string
}

var formats = []format{
	{
		name:  "spc",
		write: trace.WriteSPC, refWrite: refWriteSPC,
		parse: trace.ParseSPC, refParse: refParseSPC,
		malformed: []string{
			"0,1,2", "0,x,4096,w,1.0", "0,1,4096,z,1.0", "0,1,-4,w,1.0", "0,1,4096,w,-1.0",
			"0,1,0,w,1.0", "0,-1,512,r,0", "0,1,512, rw ,0", "0,1,512,,0", ",,,,", "0,1,512,w,1e999",
			"0,1,512,w,", "0,1,512,w,0x", "0,9223372036854775808,512,w,0", "a\n0,1,512,w,0\n",
		},
		ragged: []string{
			"# comment\n\n  0 , 8 , 4096 , W , 1.5 , extra, tenant=a ,tenant= b\r\n0,0,512,r,0.25\n",
			"\t0,1,512,R,2,\n0,1,512,w,1,tenant=\n0,1,512,w,1,,,\n",
			"0,1,512, w ,3\n0,+7,+512,r,+0.5\n0,1,512,r,1e-3,tenant=x,tenant=y",
		},
	},
	{
		name:  "msr",
		write: trace.WriteMSR, refWrite: refWriteMSR,
		parse: trace.ParseMSR, refParse: refParseMSR,
		malformed: []string{
			"1,2,3", "x,usr,0,Write,0,4096,0", "1,usr,0,Fly,0,4096,0", "1,usr,0,Write,-1,4096,0",
			"1,usr,0,Write,0,0,0", ",,,,,", "1,usr,0,,0,512,0", "1.5,usr,0,Read,0,512,0",
			"1,usr,0,Read,0,9223372036854775808,0", "ok\n1,usr,0,Read,0,512,0\n",
		},
		ragged: []string{
			"# c\n 128166372003061629 , usr ,0, WRITE ,7014609920, 24576 ,41286\r\n128166372003061630,edc,0,r,0,512",
			"5,,0,Read,0,512,0\n5, edc ,0,w,512,512,0,more,fields\n9,WRİTE,0,wrİte,0,512,0\n",
		},
	},
}

// TestMatchesReference holds the rewritten writers and parsers to the
// ones they replaced: the same bytes out for every corpus trace, the same
// requests back in, and the same answer — requests or error text — on
// hand-written ragged and malformed input.
func TestMatchesReference(t *testing.T) {
	for _, f := range formats {
		for _, tr := range corpus(t) {
			var got, want bytes.Buffer
			if err := f.write(&got, tr); err != nil {
				t.Fatal(err)
			}
			if err := f.refWrite(&want, tr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s writer differs from the reference on %s", f.name, tr.Name)
			}
			sameParse(t, f, tr.Name, got.String())
		}
		for _, in := range append(f.ragged, f.malformed...) {
			sameParse(t, f, "hand-written", in)
		}
		for _, in := range f.malformed {
			if _, err := f.parse(strings.NewReader(in), "x"); !errors.Is(err, trace.ErrFormat) {
				t.Errorf("%s parser: %q: error %v, want ErrFormat", f.name, in, err)
			}
		}
	}
}

// TestWriteSPCTimestamps holds WriteSPC's fixed-point timestamps to
// strconv's on arrivals the corpus seldom draws: half-microsecond ties
// (d%1000 == 500; k/128 s is one exactly, which strconv rounds half to
// even) and their neighbours, random arrivals up to 48 h, the 2^53 µs edge
// past which a float64 holds no fraction, and negative and extreme
// durations.
func TestWriteSPCTimestamps(t *testing.T) {
	var arrivals []time.Duration
	for us := int64(0); us < 20000; us++ {
		for _, ns := range []int64{0, 1, 499, 500, 501, 999} {
			arrivals = append(arrivals, time.Duration(us*1000+ns))
		}
	}
	for k := int64(1); k < 4096; k++ { // k/128 s: exact ties, half of them odd
		arrivals = append(arrivals, time.Duration(k*7812500))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		d := rng.Int63n(int64(48 * time.Hour))
		arrivals = append(arrivals, time.Duration(d), time.Duration(d-d%1000+500))
	}
	for _, us := range []int64{1<<53 - 2, 1<<53 - 1, 1 << 53, 1<<53 + 1} {
		arrivals = append(arrivals, time.Duration(us*1000), time.Duration(us*1000+500))
	}
	arrivals = append(arrivals, -1, -500, -1500, math.MaxInt64, math.MinInt64)
	tr := &trace.Trace{}
	for i, d := range arrivals {
		tr.Requests = append(tr.Requests, trace.Request{Arrival: d, Offset: int64(i) * 512, Size: 4096})
	}
	var got, want bytes.Buffer
	if err := trace.WriteSPC(&got, tr); err != nil {
		t.Fatal(err)
	}
	if err := refWriteSPC(&want, tr); err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
	if len(g) != len(w) {
		t.Fatalf("wrote %d lines, reference %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("arrival %d ns: wrote %q, reference %q", int64(arrivals[i]), g[i], w[i])
		}
	}
}

func sameParse(t *testing.T, f format, what, in string) {
	t.Helper()
	got, gotErr := f.parse(strings.NewReader(in), what)
	want, wantErr := f.refParse(strings.NewReader(in), what)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s parser on %s input %.60q: error %v, reference %v", f.name, what, in, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s parser on %s input %.60q: requests differ from the reference", f.name, what, in)
	}
}

func benchTrace(b *testing.B) (*trace.Trace, []byte) {
	tr, err := workload.Fin1(1<<30).GenerateN(20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := trace.WriteSPC(&text, tr); err != nil {
		b.Fatal(err)
	}
	return tr, text.Bytes()
}

// BenchmarkParseSPC and BenchmarkWriteSPC report ns per request for the
// product ("fast") and for the implementations in this file ("ref").
func BenchmarkParseSPC(b *testing.B) {
	tr, text := benchTrace(b)
	for _, v := range []struct {
		name  string
		parse func(io.Reader, string) (*trace.Trace, error)
	}{{"fast", trace.ParseSPC}, {"ref", refParseSPC}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := v.parse(bytes.NewReader(text), "b"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Requests)), "ns/req")
		})
	}
}

func BenchmarkWriteSPC(b *testing.B) {
	tr, _ := benchTrace(b)
	for _, v := range []struct {
		name  string
		write func(io.Writer, *trace.Trace) error
	}{{"fast", trace.WriteSPC}, {"ref", refWriteSPC}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := v.write(io.Discard, tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Requests)), "ns/req")
		})
	}
}
