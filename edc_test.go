package edc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"edc/internal/trace"
)

const testVolume = 64 << 20

func smallTrace(t *testing.T, n int) *Trace {
	t.Helper()
	wl, err := WorkloadByName("fin1", testVolume)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := wl.GenerateN(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func smallSSD() SSDConfig {
	cfg := DefaultSSDConfig()
	cfg.Blocks = 1024 // 256 MiB raw
	return cfg
}

func TestReplayAllSchemes(t *testing.T) {
	tr := smallTrace(t, 1000)
	for _, s := range Schemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			res, err := Replay(tr, testVolume,
				WithScheme(s), WithSSDConfig(smallSSD()), WithVerify())
			if err != nil {
				t.Fatal(err)
			}
			if res.Scheme != string(s) {
				t.Fatalf("scheme = %q", res.Scheme)
			}
			if res.Resp.Count() != int64(len(tr.Requests)) {
				t.Fatalf("answered %d of %d", res.Resp.Count(), len(tr.Requests))
			}
			if s == SchemeNative && res.TrafficRatio() != 1 {
				t.Fatalf("native ratio = %v", res.TrafficRatio())
			}
			if s != SchemeNative && s != SchemeEDC && res.TrafficRatio() <= 1 {
				t.Fatalf("%s ratio = %v; want > 1", s, res.TrafficRatio())
			}
		})
	}
}

func TestSchemeOrderingOnDefaults(t *testing.T) {
	// The paper's headline shape on a bursty OLTP trace: ratio ordering
	// Bzip2 > Gzip > EDC > Lzf > Native and response ordering
	// Bzip2 > Gzip > Lzf-ish >= EDC-ish >= ~Native.
	tr := smallTrace(t, 3000)
	results := map[Scheme]*Results{}
	for _, s := range Schemes() {
		res, err := Replay(tr, testVolume, WithScheme(s), WithSSDConfig(smallSSD()))
		if err != nil {
			t.Fatal(err)
		}
		results[s] = res
	}
	if !(results[SchemeBzip2].TrafficRatio() > results[SchemeGzip].TrafficRatio() &&
		results[SchemeGzip].TrafficRatio() > results[SchemeLzf].TrafficRatio() &&
		results[SchemeLzf].TrafficRatio() > 1) {
		t.Fatalf("ratio ordering violated: bzip2=%.2f gzip=%.2f lzf=%.2f",
			results[SchemeBzip2].TrafficRatio(), results[SchemeGzip].TrafficRatio(),
			results[SchemeLzf].TrafficRatio())
	}
	edcRatio := results[SchemeEDC].TrafficRatio()
	if edcRatio <= results[SchemeLzf].TrafficRatio()*0.8 {
		t.Fatalf("EDC ratio %.2f far below Lzf %.2f", edcRatio, results[SchemeLzf].TrafficRatio())
	}
	if results[SchemeBzip2].MeanResponse() <= results[SchemeNative].MeanResponse() {
		t.Fatal("Bzip2 should be slower than Native")
	}
	if results[SchemeEDC].MeanResponse() >= results[SchemeBzip2].MeanResponse() {
		t.Fatal("EDC should beat Bzip2 on response time")
	}
}

func TestWorkloadNames(t *testing.T) {
	for _, n := range []string{"fin1", "fin2", "usr0", "prxy0", "Usr_0"} {
		p, err := WorkloadByName(n, testVolume)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := WorkloadByName("nope", testVolume); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("unknown workload = %v, want ErrUnknownWorkload", err)
	}
}

func TestStandardWorkloadsCount(t *testing.T) {
	if got := len(StandardWorkloads(testVolume)); got != 4 {
		t.Fatalf("standard workloads = %d", got)
	}
}

func TestDataProfilesComplete(t *testing.T) {
	ps := DataProfiles()
	for _, name := range []string{"enterprise", "linux-src", "firefox-bin", "media"} {
		p, ok := ps[name]
		if !ok {
			t.Fatalf("missing profile %q", name)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRAIS5Backend(t *testing.T) {
	tr := smallTrace(t, 800)
	res, err := Replay(tr, testVolume,
		WithScheme(SchemeEDC),
		WithBackend(RAIS5, 5),
		WithSSDConfig(smallSSD()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Devices) != 5 {
		t.Fatalf("devices = %d", len(res.Devices))
	}
}

func TestElasticThresholdOption(t *testing.T) {
	tr := smallTrace(t, 500)
	// Absurdly high gz ceiling: EDC behaves like fixed Gzip.
	res, err := Replay(tr, testVolume,
		WithScheme(SchemeEDC),
		WithElasticThresholds(1e9, 2e9),
		WithSSDConfig(smallSSD()))
	if err != nil {
		t.Fatal(err)
	}
	allGz, err2 := Replay(tr, testVolume, WithScheme(SchemeGzip), WithSSDConfig(smallSSD()))
	if err2 != nil {
		t.Fatal(err2)
	}
	// EDC with an all-gz ladder still write-throughs incompressible runs,
	// so its ratio is close to but not above fixed Gzip.
	if res.TrafficRatio() > allGz.TrafficRatio()*1.05 {
		t.Fatalf("all-gz EDC ratio %.2f exceeds fixed gzip %.2f", res.TrafficRatio(), allGz.TrafficRatio())
	}
}

func TestUnknownScheme(t *testing.T) {
	tr := smallTrace(t, 10)
	if _, err := Replay(tr, testVolume, WithScheme("nope"), WithSSDConfig(smallSSD())); err == nil {
		t.Fatal("unknown scheme should fail")
	}
}

func TestSystemSingleUse(t *testing.T) {
	s, err := NewSystem(testVolume, WithSSDConfig(smallSSD()))
	if err != nil {
		t.Fatal(err)
	}
	tr := smallTrace(t, 50)
	if _, err := s.Play(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Play(tr); !errors.Is(err, ErrReplayed) {
		t.Fatalf("second Play: err = %v, want ErrReplayed", err)
	}
}

func TestWithoutSDOption(t *testing.T) {
	tr := smallTrace(t, 1000)
	with, err := Replay(tr, testVolume, WithScheme(SchemeLzf), WithSSDConfig(smallSSD()))
	if err != nil {
		t.Fatal(err)
	}
	without, err := Replay(tr, testVolume, WithScheme(SchemeLzf), WithoutSD(), WithSSDConfig(smallSSD()))
	if err != nil {
		t.Fatal(err)
	}
	if without.SDMerged != 0 {
		t.Fatalf("SD disabled but merged %d", without.SDMerged)
	}
	if with.SDMerged == 0 {
		t.Fatal("SD enabled but merged nothing on a fin1 trace")
	}
}

// TestFlushTimeoutOption checks that the SD idle flush timer (300 µs,
// core.DefaultFlushTimeout) compresses a lone buffered write instead of
// holding it for a successor: without the timer the first write would
// wait 10 ms for the second, which is not contiguous.
func TestFlushTimeoutOption(t *testing.T) {
	tr := &Trace{Name: "lone", Requests: []Request{
		{Arrival: 0, Offset: 0, Size: 4096, Write: true},
		{Arrival: 10 * time.Millisecond, Offset: 1 << 20, Size: 4096, Write: true},
	}}
	res, err := Replay(tr, testVolume,
		WithScheme(SchemeNative),
		WithSSDConfig(smallSSD()))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanResponse() > 3*time.Millisecond {
		t.Fatalf("flush timeout not honored: %v", res.MeanResponse())
	}
}

func TestEDCPlusScheme(t *testing.T) {
	tr := smallTrace(t, 800)
	res, err := Replay(tr, testVolume,
		WithScheme(SchemeEDCPlus),
		WithSSDConfig(smallSSD()),
		WithDataProfile(DataProfiles()["linux-src"], 3),
		WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "EDC+" {
		t.Fatalf("scheme = %q", res.Scheme)
	}
	if res.Resp.Count() != int64(len(tr.Requests)) {
		t.Fatalf("answered %d", res.Resp.Count())
	}
}

func TestMoreFacadeOptions(t *testing.T) {
	tr := smallTrace(t, 400)
	res, err := Replay(tr, testVolume,
		WithScheme(SchemeLz4),
		WithSSDConfig(smallSSD()),
		WithCache(4<<20),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "Lz4" || res.TrafficRatio() <= 1 {
		t.Fatalf("lz4 run: scheme=%q ratio=%v", res.Scheme, res.TrafficRatio())
	}
	if res.Cache.Hits+res.Cache.Misses == 0 {
		t.Fatal("cache option had no effect")
	}
}

func TestRAIS0Backend(t *testing.T) {
	tr := smallTrace(t, 400)
	res, err := Replay(tr, testVolume,
		WithScheme(SchemeNative),
		WithBackend(RAIS0, 4),
		WithSSDConfig(smallSSD()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Devices) != 4 {
		t.Fatalf("devices = %d", len(res.Devices))
	}
}

func TestWithoutEstimatorOption(t *testing.T) {
	tr := smallTrace(t, 400)
	res, err := Replay(tr, testVolume,
		WithScheme(SchemeEDC),
		WithoutEstimator(),
		WithDataProfile(DataProfiles()["media"], 4),
		WithSSDConfig(smallSSD()))
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteThrough != 0 {
		t.Fatalf("estimator disabled but %d write-throughs", res.WriteThrough)
	}
}

func TestWithExactSlotsOption(t *testing.T) {
	tr := smallTrace(t, 600)
	quant, err := Replay(tr, testVolume, WithScheme(SchemeGzip), WithSSDConfig(smallSSD()))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Replay(tr, testVolume, WithScheme(SchemeGzip), WithExactSlots(), WithSSDConfig(smallSSD()))
	if err != nil {
		t.Fatal(err)
	}
	if exact.StoredBytes >= quant.StoredBytes {
		t.Fatalf("exact slots stored %d >= quantized %d", exact.StoredBytes, quant.StoredBytes)
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Bit-for-bit reproducibility: identical config and seeds give
	// identical statistics.
	tr := smallTrace(t, 1200)
	run := func() *Results {
		res, err := Replay(tr, testVolume,
			WithScheme(SchemeEDC),
			WithSSDConfig(smallSSD()),
			WithDataProfile(DataProfiles()["enterprise"], 9))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MeanResponse() != b.MeanResponse() {
		t.Fatalf("mean response differs: %v vs %v", a.MeanResponse(), b.MeanResponse())
	}
	if a.TrafficRatio() != b.TrafficRatio() {
		t.Fatalf("ratio differs: %v vs %v", a.TrafficRatio(), b.TrafficRatio())
	}
	if a.StoredBytes != b.StoredBytes || a.SDRuns != b.SDRuns || a.WriteThrough != b.WriteThrough {
		t.Fatal("run counters differ between identical runs")
	}
	for tag, n := range a.RunsByTag {
		if b.RunsByTag[tag] != n {
			t.Fatalf("tag %d runs differ: %d vs %d", tag, n, b.RunsByTag[tag])
		}
	}
}

// An MSR trace whose second record is older than its first used to parse
// to a negative arrival, and Play panicked scheduling before time zero.
func TestPlayMSRRecordOlderThanFirst(t *testing.T) {
	in := "128166372003061629,usr,0,Write,4096,24576,0\n128166372003000000,usr,0,Read,0,512,0\n"
	tr, err := trace.ParseMSR(strings.NewReader(in), "reordered")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(tr, testVolume, WithSSDConfig(smallSSD()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Resp.Count() != 2 {
		t.Fatalf("answered %d of 2", res.Resp.Count())
	}
}
