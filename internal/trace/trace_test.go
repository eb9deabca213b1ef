package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestParseSPC(t *testing.T) {
	in := `0,303567,3584,w,0.026214
1,1209856,4096,R,0.026682
# comment line

0,512,512,r,1.5
`
	tr, err := ParseSPC(strings.NewReader(in), "fin")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 3 {
		t.Fatalf("requests = %d", len(tr.Requests))
	}
	r0 := tr.Requests[0]
	if !r0.Write || r0.Offset != 303567*512 || r0.Size != 3584 {
		t.Fatalf("r0 = %+v", r0)
	}
	if r0.Arrival != time.Duration(0.026214*float64(time.Second)) {
		t.Fatalf("arrival = %v", r0.Arrival)
	}
	if tr.Requests[1].Write {
		t.Fatal("R opcode should be a read")
	}
	if tr.Name != "fin" {
		t.Fatalf("name = %q", tr.Name)
	}
}

func TestParseSPCErrors(t *testing.T) {
	cases := []string{
		"0,1,2",           // too few fields
		"0,x,4096,w,1.0",  // bad lba
		"0,1,4096,z,1.0",  // bad opcode
		"0,1,-4,w,1.0",    // negative size
		"0,1,4096,w,-1.0", // negative time
	}
	for i, c := range cases {
		if _, err := ParseSPC(strings.NewReader(c), "x"); err == nil {
			t.Fatalf("case %d: expected parse error for %q", i, c)
		}
	}
}

func TestSPCRoundTrip(t *testing.T) {
	orig := &Trace{Name: "rt", Requests: []Request{
		{Arrival: 0, Offset: 4096, Size: 8192, Write: true},
		{Arrival: 100 * time.Millisecond, Offset: 0, Size: 512, Write: false},
	}}
	var buf bytes.Buffer
	if err := WriteSPC(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSPC(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Requests) != 2 {
		t.Fatalf("requests = %d", len(got.Requests))
	}
	for i := range orig.Requests {
		a, b := orig.Requests[i], got.Requests[i]
		if a.Offset != b.Offset || a.Size != b.Size || a.Write != b.Write {
			t.Fatalf("request %d: %+v != %+v", i, a, b)
		}
		if d := a.Arrival - b.Arrival; d > time.Microsecond || d < -time.Microsecond {
			t.Fatalf("request %d arrival drift %v", i, d)
		}
	}
}

func TestParseMSR(t *testing.T) {
	in := `128166372003061629,usr,0,Write,7014609920,24576,41286
128166372016382155,usr,0,Read,2657792,512,1963
`
	tr, err := ParseMSR(strings.NewReader(in), "usr_0")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 2 {
		t.Fatalf("requests = %d", len(tr.Requests))
	}
	if tr.Requests[0].Arrival != 0 {
		t.Fatalf("first arrival should rebase to 0, got %v", tr.Requests[0].Arrival)
	}
	wantGap := time.Duration(128166372016382155-128166372003061629) * 100 * time.Nanosecond
	if tr.Requests[1].Arrival != wantGap {
		t.Fatalf("second arrival = %v; want %v", tr.Requests[1].Arrival, wantGap)
	}
	if !tr.Requests[0].Write || tr.Requests[1].Write {
		t.Fatal("op types wrong")
	}
	if tr.Requests[0].Offset != 7014609920 || tr.Requests[0].Size != 24576 {
		t.Fatalf("r0 = %+v", tr.Requests[0])
	}
}

func TestMSRRoundTrip(t *testing.T) {
	orig := &Trace{Name: "rt", Requests: []Request{
		{Arrival: 0, Offset: 1 << 20, Size: 4096, Write: true},
		{Arrival: time.Second, Offset: 0, Size: 65536, Write: false},
	}}
	var buf bytes.Buffer
	if err := WriteMSR(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMSR(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Requests {
		a, b := orig.Requests[i], got.Requests[i]
		if a != b {
			t.Fatalf("request %d: %+v != %+v", i, a, b)
		}
	}
}

func TestParseMSRErrors(t *testing.T) {
	cases := []string{
		"1,2,3",
		"x,usr,0,Write,0,4096,0",
		"1,usr,0,Fly,0,4096,0",
		"1,usr,0,Write,-1,4096,0",
		"1,usr,0,Write,0,0,0",
	}
	for i, c := range cases {
		if _, err := ParseMSR(strings.NewReader(c), "x"); err == nil {
			t.Fatalf("case %d: expected parse error for %q", i, c)
		}
	}
}

func TestSPCTenantRoundTrip(t *testing.T) {
	orig := &Trace{Name: "rt", Requests: []Request{
		{Arrival: 0, Offset: 4096, Size: 8192, Write: true, Tenant: "alice"},
		{Arrival: 100 * time.Millisecond, Offset: 0, Size: 512, Write: false},
	}}
	var buf bytes.Buffer
	if err := WriteSPC(&buf, orig); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.HasSuffix(lines[0], ",tenant=alice") {
		t.Fatalf("tagged line missing tenant field: %q", lines[0])
	}
	if strings.Contains(lines[1], "tenant") {
		t.Fatalf("untagged line grew a tenant field: %q", lines[1])
	}
	got, err := ParseSPC(strings.NewReader(out), "rt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Requests[0].Tenant != "alice" || got.Requests[1].Tenant != "" {
		t.Fatalf("tenants = %q, %q", got.Requests[0].Tenant, got.Requests[1].Tenant)
	}
}

func TestMSRTenantRoundTrip(t *testing.T) {
	orig := &Trace{Name: "rt", Requests: []Request{
		{Arrival: 0, Offset: 1 << 20, Size: 4096, Write: true, Tenant: "bob"},
		{Arrival: time.Second, Offset: 0, Size: 65536, Write: false},
	}}
	var buf bytes.Buffer
	if err := WriteMSR(&buf, orig); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.Contains(lines[0], ",bob,") {
		t.Fatalf("tagged line should carry the tenant as hostname: %q", lines[0])
	}
	if !strings.Contains(lines[1], ",edc,") {
		t.Fatalf("untagged line should keep the synthetic host: %q", lines[1])
	}
	got, err := ParseMSR(strings.NewReader(buf.String()), "rt")
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Requests {
		if orig.Requests[i] != got.Requests[i] {
			t.Fatalf("request %d: %+v != %+v", i, orig.Requests[i], got.Requests[i])
		}
	}
}

func TestStats(t *testing.T) {
	tr := &Trace{Requests: []Request{
		{Arrival: 0, Offset: 0, Size: 4096, Write: true},
		{Arrival: time.Second, Offset: 8192, Size: 8192, Write: false},
		{Arrival: 2 * time.Second, Offset: 4096, Size: 4096, Write: true},
	}}
	s := tr.Stats()
	if s.Requests != 3 {
		t.Fatalf("requests = %d", s.Requests)
	}
	if s.ReadRatio < 0.33 || s.ReadRatio > 0.34 {
		t.Fatalf("read ratio = %v", s.ReadRatio)
	}
	if s.AvgSize != (4096+8192+4096)/3.0 {
		t.Fatalf("avg size = %v", s.AvgSize)
	}
	if s.AvgIOPS != 1.5 {
		t.Fatalf("iops = %v", s.AvgIOPS)
	}
	if s.WriteBytes != 8192 || s.ReadBytes != 8192 {
		t.Fatalf("bytes = %d/%d", s.WriteBytes, s.ReadBytes)
	}
	if s.MaxOffset != 16384 {
		t.Fatalf("max offset = %d", s.MaxOffset)
	}
}

func TestStatsEmpty(t *testing.T) {
	tr := &Trace{}
	s := tr.Stats()
	if s.Requests != 0 || s.AvgIOPS != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
	if tr.Duration() != 0 {
		t.Fatal("empty duration should be 0")
	}
}

func TestClip(t *testing.T) {
	tr := &Trace{Name: "x", Requests: make([]Request, 10)}
	c := tr.Clip(3)
	if len(c.Requests) != 3 || c.Name != "x" {
		t.Fatalf("clip = %d requests", len(c.Requests))
	}
	c2 := tr.Clip(100)
	if len(c2.Requests) != 10 {
		t.Fatalf("over-clip = %d", len(c2.Requests))
	}
	// Clip must copy, not alias.
	c.Requests[0].Size = 999
	if tr.Requests[0].Size == 999 {
		t.Fatal("Clip aliases the original slice")
	}
}

func TestSortByArrival(t *testing.T) {
	tr := &Trace{Requests: []Request{
		{Arrival: 3 * time.Second}, {Arrival: time.Second}, {Arrival: 2 * time.Second},
	}}
	tr.SortByArrival()
	for i := 1; i < len(tr.Requests); i++ {
		if tr.Requests[i].Arrival < tr.Requests[i-1].Arrival {
			t.Fatal("not sorted")
		}
	}
}

// Hostile SPC lines used to parse "successfully": a timestamp whose
// nanoseconds overflow a Duration (or NaN, which compares false with
// everything) and an LBA whose byte offset wraps negative. Each is
// malformed; the largest values that do fit still parse exactly.
func TestParseSPCRejectsOutOfRange(t *testing.T) {
	for _, in := range []string{
		"0,8,4096,w,1e300", "0,8,4096,w,NaN", "0,8,4096,w,+Inf", "0,8,4096,w,9223372036.9",
		"0,18014398509481984,4096,w,0", "0,18014398509481983,4096,w,0",
	} {
		if tr, err := ParseSPC(strings.NewReader(in), "x"); !errors.Is(err, ErrFormat) {
			t.Errorf("%q: parsed to %+v, error %v; want ErrFormat", in, tr, err)
		}
	}
	tr, err := ParseSPC(strings.NewReader("0,18014398509481975,4096,r,9223372036.5\n0,1,1,w,0.026214"), "x")
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := strconv.ParseFloat("9223372036.5", 64)
	want := []Request{
		{Arrival: time.Duration(0.026214 * float64(time.Second)), Offset: 512, Size: 1, Write: true},
		{Arrival: time.Duration(ts * float64(time.Second)), Offset: 18014398509481975 * 512, Size: 4096},
	}
	if !reflect.DeepEqual(tr.Requests, want) {
		t.Fatalf("parsed %+v; want %+v", tr.Requests, want)
	}
}

// ParseMSR rebases on the earliest timestamp, not the first: a record
// older than the first used to get a negative arrival. A span that does
// not fit a Duration, and a byte range that does not fit an int64, are
// malformed.
func TestParseMSRRebasesOnEarliest(t *testing.T) {
	in := "128166372003061629,usr,0,Write,4096,24576,0\n128166372003000000,usr,0,Read,0,512,0\n"
	tr, err := ParseMSR(strings.NewReader(in), "x")
	if err != nil {
		t.Fatal(err)
	}
	want := []Request{
		{Arrival: 0, Offset: 0, Size: 512, Tenant: "usr"},
		{Arrival: 61629 * 100 * time.Nanosecond, Offset: 4096, Size: 24576, Write: true, Tenant: "usr"},
	}
	if !reflect.DeepEqual(tr.Requests, want) {
		t.Fatalf("parsed %+v; want %+v", tr.Requests, want)
	}
	for _, in := range []string{
		"-9223372036854775808,usr,0,Read,0,512,0\n9223372036854775807,usr,0,Read,0,512,0\n",
		"0,usr,0,Read,0,512,0\n92233720368547759,usr,0,Read,0,512,0\n",
		"0,usr,0,Read,9223372036854775807,512,0\n",
	} {
		if tr, err := ParseMSR(strings.NewReader(in), "x"); !errors.Is(err, ErrFormat) {
			t.Errorf("%q: parsed to %+v, error %v; want ErrFormat", in, tr, err)
		}
	}
	// The widest span that fits.
	tr, err = ParseMSR(strings.NewReader("-1,usr,0,Read,0,512,0\n92233720368547756,usr,0,Read,0,512,0\n"), "x")
	if err != nil || tr.Requests[1].Arrival != 92233720368547757*100*time.Nanosecond {
		t.Fatalf("widest span: %+v, %v", tr, err)
	}
}
