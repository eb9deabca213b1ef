package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"edc/internal/compress"
	"edc/internal/datagen"
	"edc/internal/sim"
	"edc/internal/ssd"
	"edc/internal/trace"
	"edc/internal/workload"
)

func TestNewDeviceValidation(t *testing.T) {
	eng := sim.NewEngine()
	d, _ := ssd.New(ssd.DefaultConfig())
	be := NewSSDBackend(eng, d)
	if _, err := NewDevice(eng, be, 0, Options{}); err == nil {
		t.Fatal("zero volume should fail")
	}
	if _, err := NewDevice(eng, be, be.LogicalBytes()+1, Options{}); err == nil {
		t.Fatal("volume beyond backend should fail")
	}
}

func TestPlayNativeRoundTrip(t *testing.T) {
	rig := newTestRig(t, Options{Policy: Native()})
	st, err := rig.dev.Play(seqTrace(300, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 300 {
		t.Fatalf("requests = %d", st.Requests)
	}
	if st.Resp.Count() != 300 {
		t.Fatalf("responses = %d; want all requests answered", st.Resp.Count())
	}
	if st.TrafficRatio() != 1.0 {
		t.Fatalf("native ratio = %v; want 1.0", st.TrafficRatio())
	}
	if st.RunsByTag[compress.TagNone] != st.SDRuns {
		t.Fatalf("native stored %v compressed runs", st.RunsByTag)
	}
	if err := rig.dev.se.mapping.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPlayFixedGzipCompresses(t *testing.T) {
	reg := defaultTestRegistry(t)
	gz, _ := reg.ByName("gz")
	rig := newTestRig(t, Options{
		Policy: Fixed("Gzip", gz),
		Data:   datagen.New(datagen.LinuxSrc(), 3),
	})
	st, err := rig.dev.Play(seqTrace(300, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if st.TrafficRatio() <= 1.2 {
		t.Fatalf("gzip traffic ratio = %v; want substantial compression", st.TrafficRatio())
	}
	if st.BytesByTag[compress.TagGZ] == 0 {
		t.Fatal("no bytes stored via gz")
	}
}

func TestVerifyReadsCatchAllSchemes(t *testing.T) {
	// With VerifyReads on, every read decompresses the stored payload and
	// compares against regenerated content; any engine bug fails the run.
	reg := defaultTestRegistry(t)
	lzf, _ := reg.ByName("lzf")
	bwz, _ := reg.ByName("bwz")
	policies := []Policy{Native(), Fixed("Lzf", lzf), Fixed("Bzip2", bwz)}
	if edc, err := DefaultElastic(reg); err == nil {
		policies = append(policies, edc)
	}
	for _, p := range policies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			rig := newTestRig(t, Options{Policy: p})
			st, err := rig.dev.Play(seqTrace(400, 500*time.Microsecond))
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if st.Err != nil {
				t.Fatalf("%s: %v", p.Name(), st.Err)
			}
			if st.Reads == 0 {
				t.Fatal("trace exercised no reads")
			}
		})
	}
}

func TestWriteThroughOnIncompressibleData(t *testing.T) {
	reg := defaultTestRegistry(t)
	edc, err := DefaultElastic(reg)
	if err != nil {
		t.Fatal(err)
	}
	rig := newTestRig(t, Options{
		Policy: edc,
		Data:   datagen.New(datagen.Media(), 5),
	})
	st, err := rig.dev.Play(seqTrace(300, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if st.WriteThrough == 0 {
		t.Fatal("EDC never wrote through on a media volume")
	}
	// Most stored bytes should be uncompressed.
	if st.BytesByTag[compress.TagNone] < st.OrigBytes/2 {
		t.Fatalf("tag-none bytes = %d of %d", st.BytesByTag[compress.TagNone], st.OrigBytes)
	}
}

func TestFixedCompressesEvenIncompressible(t *testing.T) {
	// The paper's complaint about fixed schemes: they burn CPU on
	// incompressible data. Fixed-Gzip on a media volume must attempt
	// compression on every run (WriteThrough stays 0) and end up storing
	// nearly raw-size data.
	reg := defaultTestRegistry(t)
	gz, _ := reg.ByName("gz")
	rig := newTestRig(t, Options{
		Policy: Fixed("Gzip", gz),
		Data:   datagen.New(datagen.Media(), 6),
	})
	st, err := rig.dev.Play(seqTrace(200, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if st.WriteThrough != 0 {
		t.Fatal("fixed policy must not use the estimator")
	}
	if st.TrafficRatio() > 1.5 {
		t.Fatalf("media volume compressed %vx; expected near 1", st.TrafficRatio())
	}
	if st.Oversize == 0 {
		t.Fatal("expected some runs to miss the 75% slot on media data")
	}
}

func TestElasticUsesIntensity(t *testing.T) {
	// Low-rate trace -> gz; the same requests at a high rate -> lzf/none.
	reg := defaultTestRegistry(t)
	build := func(gap time.Duration) *RunStats {
		edc, err := DefaultElastic(reg)
		if err != nil {
			t.Fatal(err)
		}
		rig := newTestRig(t, Options{
			Policy: edc,
			Data:   datagen.New(datagen.LinuxSrc(), 7),
			// A short window so the 0.2 s burst trace saturates the
			// monitor quickly instead of spending the whole run warming
			// the stock 500 ms window up.
			Meter: newDualMonitor(100*time.Millisecond, 10),
		})
		// Write-only trace, non-contiguous offsets so runs stay small.
		tr := &trace.Trace{Name: "x"}
		for i := 0; i < 1500; i++ {
			tr.Requests = append(tr.Requests, trace.Request{
				Arrival: time.Duration(i) * gap,
				Offset:  int64(i%300) * 65536,
				Size:    4096,
				Write:   true,
			})
		}
		st, err := rig.dev.Play(tr)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	slow := build(50 * time.Millisecond)  // 20 IOPS, below gz ceiling
	fast := build(100 * time.Microsecond) // ~10000 IOPS, above lzf ceiling
	if slow.BytesByTag[compress.TagGZ] == 0 {
		t.Fatalf("slow trace never used gz: %v", slow.BytesByTag)
	}
	if fast.BytesByTag[compress.TagGZ] > fast.OrigBytes/10 {
		t.Fatalf("fast trace used gz for %d of %d bytes", fast.BytesByTag[compress.TagGZ], fast.OrigBytes)
	}
	// The fast trace should mostly skip compression entirely.
	if fast.BytesByTag[compress.TagNone] < fast.OrigBytes/2 {
		t.Fatalf("fast trace compressed too much: %v", fast.BytesByTag)
	}
}

func TestSDMergingReducesRuns(t *testing.T) {
	reg := defaultTestRegistry(t)
	lzf, _ := reg.ByName("lzf")
	mk := func(disable bool) *RunStats {
		rig := newTestRig(t, Options{Policy: Fixed("Lzf", lzf), DisableSD: disable})
		tr := &trace.Trace{Name: "seq"}
		// 10 bursts of 8 perfectly sequential 8K writes.
		for b := 0; b < 10; b++ {
			base := int64(b) * (1 << 20)
			for i := 0; i < 8; i++ {
				tr.Requests = append(tr.Requests, trace.Request{
					Arrival: time.Duration(b)*time.Second + time.Duration(i)*100*time.Microsecond,
					Offset:  base + int64(i)*8192,
					Size:    8192,
					Write:   true,
				})
			}
		}
		st, err := rig.dev.Play(tr)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	merged := mk(false)
	unmerged := mk(true)
	if merged.SDRuns >= unmerged.SDRuns {
		t.Fatalf("SD did not reduce runs: %d vs %d", merged.SDRuns, unmerged.SDRuns)
	}
	if merged.SDMerged == 0 {
		t.Fatal("no writes merged")
	}
	// Merging should improve the compression ratio (bigger blocks).
	if merged.TrafficRatio() < unmerged.TrafficRatio() {
		t.Fatalf("merged ratio %.2f < unmerged %.2f", merged.TrafficRatio(), unmerged.TrafficRatio())
	}
}

func TestIdleFlushTimer(t *testing.T) {
	// A lone write with no successor must still complete (idle flush).
	rig := newTestRig(t, Options{Policy: Native()})
	tr := &trace.Trace{Name: "lone", Requests: []trace.Request{
		{Arrival: 0, Offset: 0, Size: 4096, Write: true},
	}}
	st, err := rig.dev.Play(tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Resp.Count() != 1 {
		t.Fatal("lone write never completed")
	}
	// Response includes the flush wait, bounded by the timeout plus
	// device time.
	if st.Resp.Mean() > DefaultFlushTimeout+5*time.Millisecond {
		t.Fatalf("lone write response = %v", st.Resp.Mean())
	}
	if st.Resp.Mean() < DefaultFlushTimeout/2 {
		t.Fatalf("lone write response %v too fast to include flush wait", st.Resp.Mean())
	}
}

func TestDeviceSpaceExhaustion(t *testing.T) {
	// A tiny backend with an (allowed) equal-size volume fills up under
	// partial overwrites that strand dead extent space.
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	cfg.Blocks = 8 // 2 MiB raw, ~1.9 MiB logical
	d, err := ssd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	be := NewSSDBackend(eng, d)
	dev, err := NewDevice(eng, be, be.LogicalBytes(), Options{Policy: Native()})
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Name: "fill"}
	// Large merged writes followed by single-block overwrites strand
	// partially-dead extents until allocation fails.
	for i := 0; i < 2000; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: time.Duration(i) * time.Millisecond,
			Offset:  int64(i%29) * 65536,
			Size:    65536,
			Write:   true,
		})
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: time.Duration(i)*time.Millisecond + 500*time.Microsecond,
			Offset:  int64((i*7)%450) * 4096,
			Size:    4096,
			Write:   true,
		})
	}
	st, err := dev.Play(tr)
	if err == nil {
		t.Skip("volume did not fill; acceptable but not exercising ErrNoSpace")
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v; want ErrNoSpace", err)
	}
	if st == nil || st.Err == nil {
		t.Fatal("stats must record the error")
	}
}

func TestReplayRealisticWorkloadAllSchemes(t *testing.T) {
	// End-to-end: a bursty synthetic workload through every scheme with
	// verification on; checks mapping and FTL invariants afterwards.
	reg := defaultTestRegistry(t)
	lzf, _ := reg.ByName("lzf")
	gz, _ := reg.ByName("gz")
	prof := workload.Fin1(128 << 20)
	tr, err := prof.GenerateN(1500, 21)
	if err != nil {
		t.Fatal(err)
	}
	edc, _ := DefaultElastic(reg)
	for _, p := range []Policy{Native(), Fixed("Lzf", lzf), Fixed("Gzip", gz), edc} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			rig := newTestRig(t, Options{Policy: p, Data: datagen.New(datagen.Enterprise(), 9)})
			st, err := rig.dev.Play(tr)
			if err != nil {
				t.Fatal(err)
			}
			if st.Resp.Count() != int64(len(tr.Requests)) {
				t.Fatalf("answered %d of %d", st.Resp.Count(), len(tr.Requests))
			}
			if err := rig.dev.se.mapping.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPlayTwiceFails(t *testing.T) {
	rig := newTestRig(t, Options{Policy: Native()})
	if _, err := rig.dev.Play(seqTrace(10, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.dev.Play(seqTrace(10, time.Millisecond)); err == nil {
		t.Fatal("second Play should fail")
	}
}

func TestRAISBackendReplay(t *testing.T) {
	reg := defaultTestRegistry(t)
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	cfg.Blocks = 1024
	devs := make([]*ssd.SSD, 5)
	for i := range devs {
		d, err := ssd.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	arr, err := newRAIS5(devs)
	if err != nil {
		t.Fatal(err)
	}
	be := NewArrayBackend(eng, arr)
	edc, _ := DefaultElastic(reg)
	dev, err := NewDevice(eng, be, 256<<20, Options{
		Policy:      edc,
		Data:        datagen.New(datagen.Enterprise(), 10),
		VerifyReads: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.Play(seqTrace(500, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if st.Resp.Count() != 500 {
		t.Fatalf("answered %d", st.Resp.Count())
	}
	if len(st.Devices) != 5 || len(st.Queues) != 5 {
		t.Fatalf("device stats = %d, queues = %d", len(st.Devices), len(st.Queues))
	}
	// Parity writes mean the array programs more pages than a single
	// device would for the same host traffic.
	var writes int64
	for _, ds := range st.Devices {
		writes += ds.HostPagesWritten
	}
	if writes == 0 {
		t.Fatal("no device writes recorded")
	}
}

func TestHostCacheServesHotReads(t *testing.T) {
	// Repeatedly read the same blocks: with a cache, later reads are
	// DRAM-fast and flash reads drop.
	mk := func(cacheBytes int64) *RunStats {
		rig := newTestRig(t, Options{Policy: Native(), CacheBytes: cacheBytes})
		tr := &trace.Trace{Name: "hot"}
		at := time.Duration(0)
		// Write 16 blocks once, then read them 20 times each.
		for i := 0; i < 16; i++ {
			tr.Requests = append(tr.Requests, trace.Request{
				Arrival: at, Offset: int64(i) * 4096, Size: 4096, Write: true})
			at += time.Millisecond
		}
		for round := 0; round < 20; round++ {
			for i := 0; i < 16; i++ {
				tr.Requests = append(tr.Requests, trace.Request{
					Arrival: at, Offset: int64(i) * 4096, Size: 4096})
				at += time.Millisecond
			}
		}
		st, err := rig.dev.Play(tr)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	without := mk(0)
	with := mk(1 << 20)
	if with.Cache.HitRate() < 0.9 {
		t.Fatalf("hit rate = %v; want ~1 for a resident hot set", with.Cache.HitRate())
	}
	if without.Cache.Hits != 0 {
		t.Fatal("disabled cache recorded hits")
	}
	var rw, rwo int64
	for _, d := range with.Devices {
		rw += d.HostPagesRead
	}
	for _, d := range without.Devices {
		rwo += d.HostPagesRead
	}
	if rw >= rwo/5 {
		t.Fatalf("cached flash reads = %d; want far below %d", rw, rwo)
	}
	if with.RespRead.Mean() >= without.RespRead.Mean() {
		t.Fatalf("cached read mean %v not below uncached %v",
			with.RespRead.Mean(), without.RespRead.Mean())
	}
}

func TestCacheEvictionUnderPressure(t *testing.T) {
	// A working set larger than the cache must evict: hit rate well
	// below 1 but above 0.
	rig := newTestRig(t, Options{Policy: Native(), CacheBytes: 8 * 4096})
	tr := &trace.Trace{Name: "churn"}
	at := time.Duration(0)
	for i := 0; i < 64; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: at, Offset: int64(i%32) * 4096, Size: 4096, Write: i < 32})
		at += time.Millisecond
	}
	st, err := rig.dev.Play(tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Evictions == 0 {
		t.Fatal("expected evictions with an 8-block cache and 32-block set")
	}
}

func TestRunStatsStringAndHelpers(t *testing.T) {
	rig := newTestRig(t, Options{Policy: Native()})
	st, err := rig.dev.Play(seqTrace(60, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	s := st.String()
	for _, want := range []string{"Native", "mean=", "ratio="} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q: %s", want, s)
		}
	}
	if st.CodecRatio() != 1.0 {
		t.Fatalf("native codec ratio = %v", st.CodecRatio())
	}
	if st.TotalErases() != 0 {
		t.Fatalf("erases = %d on a light trace", st.TotalErases())
	}
	if st.TotalFlashWrites() == 0 {
		t.Fatal("no flash writes recorded")
	}
	if st.Composite() <= 0 {
		t.Fatalf("composite = %v", st.Composite())
	}
}
