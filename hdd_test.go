package edc

import (
	"strings"
	"testing"
	"time"
)

// hddTrace is n alternating write/read pairs (two writes per read) over
// a 1 MiB working set, one request every 2 ms: a load the disk sustains.
func hddTrace(n int) *Trace {
	tr := &Trace{Name: "unit"}
	for i := 0; i < n; i++ {
		tr.Requests = append(tr.Requests, Request{
			Arrival: time.Duration(i) * 2 * time.Millisecond,
			Offset:  int64(i%64) * 16384, Size: 8192, Write: i%3 != 2,
		})
	}
	return tr
}

func TestHDDBackendReplay(t *testing.T) {
	res, err := Replay(hddTrace(300), testVolume, WithScheme(SchemeNative), WithBackend(HDD, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Resp.Count() != 300 {
		t.Fatalf("answered %d", res.Resp.Count())
	}
	if len(res.Devices) != 0 {
		t.Fatal("HDD backend must not report flash stats")
	}
	if len(res.Queues) != 1 || res.Queues[0].Jobs == 0 {
		t.Fatalf("queues = %+v", res.Queues)
	}
	if !strings.HasPrefix(res.Backend, "single HDD") {
		t.Fatalf("backend = %q", res.Backend)
	}
}

func TestHDDBackendCompressionStillSavesSpace(t *testing.T) {
	res, err := Replay(hddTrace(300), testVolume, WithScheme(SchemeLzf), WithBackend(HDD, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.TrafficRatio() <= 1.1 {
		t.Fatalf("ratio = %v; compression should be backend-independent", res.TrafficRatio())
	}
}
