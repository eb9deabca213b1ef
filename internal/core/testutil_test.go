package core

import (
	"testing"
	"time"

	"edc/internal/compress"
	_ "edc/internal/compress/bwz"
	_ "edc/internal/compress/gz"
	_ "edc/internal/compress/lz4x"
	_ "edc/internal/compress/lzf"
	"edc/internal/datagen"
	"edc/internal/sim"
	"edc/internal/ssd"
	"edc/internal/trace"
)

// defaultTestRegistry returns the process registry with all four codecs
// registered (via the blank imports above).
func defaultTestRegistry(t testing.TB) *compress.Registry {
	t.Helper()
	reg := compress.Default()
	for _, name := range []string{"lzf", "lz4", "gz", "bwz"} {
		if _, err := reg.ByName(name); err != nil {
			t.Fatalf("codec %s not registered: %v", name, err)
		}
	}
	return reg
}

// tuning moves the pipeline's fixed constants on a built Device, before
// it plays: the closed-loop bound (DefaultMaxOutstanding), the SD merge
// cap (DefaultMaxRun) and the idle flush wait (DefaultFlushTimeout). A
// zero field keeps the default; a negative maxInFlight lifts the bound
// and a negative flushWait switches the idle timer off.
type tuning struct {
	maxInFlight int64
	maxRun      int64
	flushWait   time.Duration
}

// apply sets t on d.
func (t tuning) apply(d *Device) {
	switch {
	case t.maxInFlight < 0:
		d.fe.maxInFlight = 1 << 30 // effectively unbounded
	case t.maxInFlight > 0:
		d.fe.maxInFlight = t.maxInFlight
	}
	if t.maxRun > 0 {
		d.wp.sd = NewSeqDetector(t.maxRun)
	}
	switch {
	case t.flushWait < 0:
		d.wp.flushWait = 0
	case t.flushWait > 0:
		d.wp.flushWait = t.flushWait
	}
}

// testRig bundles a fresh engine + single-SSD device for core tests.
type testRig struct {
	eng *sim.Engine
	dev *Device
}

// newTestRig builds a small device (256 MiB volume on a 512 MiB SSD) with
// read verification enabled.
func newTestRig(t testing.TB, opts Options) *testRig {
	t.Helper()
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	cfg.Blocks = 2048 // 512 MiB raw
	d, err := ssd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	be := NewSSDBackend(eng, d)
	if opts.Data == nil {
		opts.Data = datagen.New(datagen.Enterprise(), 11)
	}
	opts.VerifyReads = true
	dev, err := NewDevice(eng, be, 256<<20, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{eng: eng, dev: dev}
}

// seqTrace builds a simple deterministic trace: n alternating write/read
// pairs over a small working set.
func seqTrace(n int, gap time.Duration) *trace.Trace {
	tr := &trace.Trace{Name: "unit"}
	for i := 0; i < n; i++ {
		at := time.Duration(i) * gap
		off := int64(i%64) * 16384
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: at, Offset: off, Size: 8192, Write: i%3 != 2,
		})
	}
	tr.SortByArrival()
	return tr
}
