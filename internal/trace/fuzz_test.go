package trace_test

import (
	"bytes"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"edc/internal/trace"
)

// outOfRange is the error ParseSPC gives a record whose timestamp or byte
// range overflows, which refParseSPC accepted (see ref_test.go).
var outOfRange = regexp.MustCompile(`^trace: malformed record: line \d+: timestamp or offset out of range$`)

// FuzzParseSPC holds ParseSPC to refParseSPC: the same requests or the
// same error text, except on the overflowing records the reference
// accepted.
func FuzzParseSPC(f *testing.F) {
	f.Add("0,303567,3584,w,0.026214\n1,1209856,4096,R,0.026682\n")
	f.Add("# comment\n\n0,512,512,r,1.5\n")
	f.Add("0,x,y,z,w\n")
	// 15 and 16 significant digits: the last that the scanner takes, and
	// the first that strconv does.
	f.Add("0,1,512,w,123456789.012345\n0,2,512,r,1234567890.123456\n0,3,512,r,000000000000001.5\n")
	// Spellings strconv accepts that the scanner leaves to it.
	f.Add("0,1,512,w,1e3\n0,1,512,w,+1.5\n0,1,512,w,.5\n0,1,512,w,5.\n0,+1,512,w,5\n")
	// Padded fields, CRLF, tenant tags and trailing fields.
	f.Add(" 0 , 8 ,4096, W , 1.5 \r\n0,8,4096,w,1.5\r\n0,8,4096,w,2,tenant=gold\n0,8,4096,w,2,\n")
	// Eighteen- and nineteen-digit integers, and a size of zero.
	f.Add("0,999999999999999999,512,w,1\n0,1000000000000000000,512,w,1\n0,1,0,w,1\n")
	// testdata/fuzz/FuzzParseSPC holds lines that once parsed "successfully"
	// into arrivals and offsets that had overflowed.
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := trace.ParseSPC(strings.NewReader(in), "fuzz")
		if err == nil {
			// Parsed traces must be internally consistent.
			for _, r := range tr.Requests {
				if r.Size <= 0 || r.Offset < 0 || r.Arrival < 0 {
					t.Fatalf("invalid parsed request: %+v", r)
				}
			}
		}
		if err != nil && outOfRange.MatchString(err.Error()) {
			return
		}
		want, wantErr := refParseSPC(strings.NewReader(in), "fuzz")
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if !reflect.DeepEqual(tr, want) {
			t.Fatalf("requests differ from the reference:\n got  %+v\n want %+v", tr, want)
		}
	})
}

// FuzzWriteSPC holds WriteSPC to refWriteSPC's bytes for any arrival.
func FuzzWriteSPC(f *testing.F) {
	for _, ns := range []int64{
		0, 1, 499, 500, 501, 1500, 2500, 7812500, // ties: d%1000 == 500
		26214000, 3*3600e9 + 500, 48*3600e9 - 1,
		9007199254740991000, 9007199254740993000, // 2^53 microseconds
		1<<63 - 1, -1, -500, -1 << 63,
	} {
		f.Add(ns, int64(8*trace.SectorSize), int64(4096), ns%2 == 0, "")
	}
	f.Add(int64(123456789012345678), int64(0), int64(512), true, "gold")
	f.Fuzz(func(t *testing.T, ns, off, size int64, write bool, tenant string) {
		tr := &trace.Trace{Requests: []trace.Request{{
			Arrival: time.Duration(ns), Offset: off, Size: size, Write: write, Tenant: tenant,
		}}}
		var got, want bytes.Buffer
		if err := trace.WriteSPC(&got, tr); err != nil {
			t.Fatal(err)
		}
		if err := refWriteSPC(&want, tr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("arrival %d ns: wrote %q, reference %q", ns, got.Bytes(), want.Bytes())
		}
	})
}

func FuzzParseMSR(f *testing.F) {
	f.Add("128166372003061629,usr,0,Write,7014609920,24576,41286\n")
	f.Add("1,usr,0,Read,0,512,0\n")
	f.Add(",,,,,\n")
	// testdata/fuzz/FuzzParseMSR holds traces that once parsed to negative
	// arrivals: a record older than the first, a span wider than a Duration.
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := trace.ParseMSR(strings.NewReader(in), "fuzz")
		if err == nil {
			for _, r := range tr.Requests {
				if r.Size <= 0 || r.Offset < 0 || r.Arrival < 0 {
					t.Fatalf("invalid parsed request: %+v", r)
				}
			}
		}
	})
}
