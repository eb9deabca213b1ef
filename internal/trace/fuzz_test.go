package trace

import (
	"strings"
	"testing"
)

func FuzzParseSPC(f *testing.F) {
	f.Add("0,303567,3584,w,0.026214\n1,1209856,4096,R,0.026682\n")
	f.Add("# comment\n\n0,512,512,r,1.5\n")
	f.Add("0,x,y,z,w\n")
	// testdata/fuzz/FuzzParseSPC holds lines that once parsed "successfully"
	// into arrivals and offsets that had overflowed.
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ParseSPC(strings.NewReader(in), "fuzz")
		if err == nil {
			// Parsed traces must be internally consistent.
			for _, r := range tr.Requests {
				if r.Size <= 0 || r.Offset < 0 || r.Arrival < 0 {
					t.Fatalf("invalid parsed request: %+v", r)
				}
			}
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
		tr, err := ParseMSR(strings.NewReader(in), "fuzz")
		if err == nil {
			for _, r := range tr.Requests {
				if r.Size <= 0 || r.Offset < 0 || r.Arrival < 0 {
					t.Fatalf("invalid parsed request: %+v", r)
				}
			}
		}
	})
}
