package core

import (
	"testing"
	"time"

	"edc/internal/cache"
	"edc/internal/compress"
	"edc/internal/datagen"
	"edc/internal/sim"
	"edc/internal/ssd"
	"edc/internal/trace"
)

// newTestWritePath assembles a writePath over a real single-SSD store
// engine with stub completion callbacks, so the stage composition can be
// asserted without a frontend or read path.
func newTestWritePath(t *testing.T, policy Policy) (*writePath, *[]time.Duration) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	cfg.Blocks = 256
	d, err := ssd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	be := NewSSDBackend(eng, d)
	stats := newRunStats("test", "unit", be.Describe())
	wp := &writePath{
		eng:   eng,
		cpu:   sim.NewStation(eng, "cpu"),
		fs:    &failState{},
		stats: stats,
		se:    newStoreEngine(be, 16<<20, false),
		meter: newDualMonitor(500*time.Millisecond, 10),
		sd:    NewSeqDetector(0),
		est:   NewEstimator(),
		// linux-src content compresses well below the 75 % slot, so the
		// fixed-codec case cannot fall into the oversize keep-raw path.
		data:      datagen.New(datagen.LinuxSrc(), 7),
		policy:    policy,
		hostCache: cache.New(0),
	}
	completions := &[]time.Duration{}
	wp.complete = func(resp time.Duration) { *completions = append(*completions, resp) }
	wp.drop = func(n int) { t.Fatalf("unexpected drop of %d writes: %v", n, wp.fs.err) }
	return wp, completions
}

// TestWritePathStageComposition drives admitted writes through the full
// stage chain — SD merge → estimate → policy → codec → quantized store —
// and checks each stage's observable effect on the run statistics.
func TestWritePathStageComposition(t *testing.T) {
	reg := defaultTestRegistry(t)
	gz, err := reg.ByName("gz")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		policy   Policy
		wantTag  compress.Tag
		compress bool
	}{
		{"fixed gzip compresses", Fixed("Gzip", gz), compress.TagGZ, true},
		{"native stores raw", Native(), compress.TagNone, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			wp, completions := newTestWritePath(t, tc.policy)
			const n = 4
			for i := 0; i < n; i++ {
				wp.admitWrite(PendingWrite{
					Arrival: 0, Offset: int64(i) * 8192, Size: 8192,
				})
			}
			wp.drain()
			if err := wp.fs.err; err != nil {
				t.Fatal(err)
			}
			if len(*completions) != n {
				t.Fatalf("%d completions, want %d", len(*completions), n)
			}
			// SD merged the contiguous burst into one run...
			if wp.stats.SDRuns != 1 {
				t.Errorf("SDRuns = %d, want 1 (contiguous writes should merge)", wp.stats.SDRuns)
			}
			if want := int64(n * 8192); wp.stats.OrigBytes != want {
				t.Errorf("OrigBytes = %d, want %d", wp.stats.OrigBytes, want)
			}
			// ...which the policy then tagged and the store quantized.
			if got := wp.stats.RunsByTag[tc.wantTag]; got != 1 {
				t.Errorf("RunsByTag[%v] = %d, want 1 (have %v)", tc.wantTag, got, wp.stats.RunsByTag)
			}
			if tc.compress {
				if wp.stats.CompBytes >= wp.stats.OrigBytes {
					t.Errorf("CompBytes = %d not below OrigBytes = %d",
						wp.stats.CompBytes, wp.stats.OrigBytes)
				}
				if wp.stats.StoredBytes < wp.stats.CompBytes {
					t.Errorf("StoredBytes = %d below CompBytes = %d (quantization can only round up)",
						wp.stats.StoredBytes, wp.stats.CompBytes)
				}
			} else if wp.stats.StoredBytes != wp.stats.OrigBytes {
				t.Errorf("Native StoredBytes = %d, want OrigBytes = %d",
					wp.stats.StoredBytes, wp.stats.OrigBytes)
			}
		})
	}
}

// TestPlayDrainsTrailingRuns is the regression test for the post-Run SD
// drain: with the outstanding bound at 1 and the flush timer disabled, a
// trace of contiguous same-time writes ends with every completion
// admitting a deferred write that buffers a fresh pending run. A single
// final flush strands those writes ("requests never completed"); the
// drain loop must keep flushing until the detector is empty.
func TestPlayDrainsTrailingRuns(t *testing.T) {
	rig := newTestRig(t, Options{})
	// The idle timer is off: only the end-of-run drain flushes.
	tuning{maxInFlight: 1, flushWait: -1}.apply(rig.dev)
	tr := &trace.Trace{Name: "tail"}
	const n = 3
	for i := 0; i < n; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: 0, Offset: int64(i) * 8192, Size: 8192, Write: true,
		})
	}
	res, err := rig.dev.Play(tr)
	if err != nil {
		t.Fatalf("Play: %v", err)
	}
	if res.Writes != n {
		t.Errorf("Writes = %d, want %d", res.Writes, n)
	}
	if got := res.Resp.Count(); got != n {
		t.Errorf("observed %d responses, want %d", got, n)
	}
}

// TestJournalQueueOrder holds the journal to the mapping's order: a
// mutation durable at once (a dedup ref) waits behind an insert mapped
// before it, and its host write is acknowledged only once its record is
// appended; a write that fails for good drops every mutation queued
// behind it, journaling none of them.
func TestJournalQueueOrder(t *testing.T) {
	wp, completions := newTestWritePath(t, Native())
	wp.jnl = &Journal{}
	dropped := 0
	wp.drop = func(n int) { dropped += n }
	tgt := mkExtent(t, wp.se.mapping, wp.se.alloc, 0, 4*BlockSize, compress.TagNone)
	insert := func() *mutation {
		m := &mutation{writes: make([]PendingWrite, 1), record: func(j *Journal) { j.Append(tgt) }}
		wp.jq = append(wp.jq, m)
		return m
	}
	ref := func() {
		wp.mutated(&mutation{durable: true, writes: make([]PendingWrite, 1),
			record: func(j *Journal) { j.AppendRef(8*BlockSize, 4*BlockSize, tgt) }})
	}

	first := insert()
	ref()
	if n := len(mustDecode(t, wp.jnl.Bytes())); n != 0 || len(*completions) != 0 {
		t.Fatalf("ref ahead of its insert: %d records, %d writes acknowledged", n, len(*completions))
	}
	first.durable = true
	wp.settle()
	recs := mustDecode(t, wp.jnl.Bytes())
	if len(recs) != 2 || recs[0].Ref || !recs[1].Ref || len(*completions) != 2 || len(wp.jq) != 0 {
		t.Fatalf("after the insert: %d records (%+v), %d acknowledged, %d queued", len(recs), recs, len(*completions), len(wp.jq))
	}

	failed := insert()
	ref()
	wp.abandon(nil, nil, failed)
	if n := len(mustDecode(t, wp.jnl.Bytes())); n != 2 || dropped != 2 || len(*completions) != 2 || len(wp.jq) != 0 {
		t.Fatalf("after a failed insert: %d records, %d dropped, %d acknowledged, %d queued", n, dropped, len(*completions), len(wp.jq))
	}
}
