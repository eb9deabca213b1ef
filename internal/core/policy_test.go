package core

import (
	"testing"
	"time"

	"edc/internal/compress"
)

func TestNativePolicy(t *testing.T) {
	p := Native()
	if p.Name() != "Native" || p.Select(0) != nil || p.Select(1e6) != nil {
		t.Fatal("native policy must never compress")
	}
	if p.ChecksCompressibility() {
		t.Fatal("native policy skips the estimator")
	}
}

func TestFixedPolicy(t *testing.T) {
	reg := defaultTestRegistry(t)
	gz, _ := reg.ByName("gz")
	p := Fixed("Gzip", gz)
	if p.Name() != "Gzip" {
		t.Fatalf("name = %q", p.Name())
	}
	for _, iops := range []float64{0, 100, 1e6} {
		if p.Select(iops) != gz {
			t.Fatalf("fixed policy changed codec at %v IOPS", iops)
		}
	}
	if p.ChecksCompressibility() {
		t.Fatal("fixed baselines compress everything per the paper")
	}
}

func TestElasticSelection(t *testing.T) {
	reg := defaultTestRegistry(t)
	p, err := DefaultElastic(reg)
	if err != nil {
		t.Fatal(err)
	}
	gz, _ := reg.ByName("gz")
	lzf, _ := reg.ByName("lzf")
	if got := p.Select(10); got != gz {
		t.Fatalf("idle selection = %v; want gz", got.Name())
	}
	if got := p.Select(DefaultGzCeiling + 1); got != lzf {
		t.Fatalf("mid selection should be lzf")
	}
	if got := p.Select(DefaultLzfCeiling + 1); got != nil {
		t.Fatalf("peak selection = %v; want none", got.Name())
	}
	if !p.ChecksCompressibility() {
		t.Fatal("EDC must check compressibility")
	}
	if len(p.Levels()) != 2 {
		t.Fatalf("levels = %d", len(p.Levels()))
	}
}

func TestElasticBoundaryInclusive(t *testing.T) {
	reg := defaultTestRegistry(t)
	p, _ := DefaultElastic(reg)
	gz, _ := reg.ByName("gz")
	if got := p.Select(DefaultGzCeiling); got != gz {
		t.Fatal("threshold should be inclusive")
	}
}

func TestNewElasticValidation(t *testing.T) {
	reg := defaultTestRegistry(t)
	lzf, _ := reg.ByName("lzf")
	if _, err := NewElastic("x", nil); err == nil {
		t.Fatal("empty levels should fail")
	}
	if _, err := NewElastic("x", []Level{{100, nil}}); err == nil {
		t.Fatal("nil codec should fail")
	}
	if _, err := NewElastic("x", []Level{{-5, lzf}}); err == nil {
		t.Fatal("negative threshold should fail")
	}
	if _, err := NewElastic("x", []Level{{100, lzf}, {100, lzf}}); err == nil {
		t.Fatal("duplicate thresholds should fail")
	}
	// Unsorted input is sorted.
	p, err := NewElastic("x", []Level{{500, lzf}, {100, lzf}})
	if err != nil {
		t.Fatal(err)
	}
	ls := p.Levels()
	if ls[0].MaxIOPS != 100 || ls[1].MaxIOPS != 500 {
		t.Fatalf("levels not sorted: %+v", ls)
	}
}

func TestCostModel(t *testing.T) {
	got := CompressTime(compress.TagGZ, 1<<20)
	want := time.Duration(float64(1<<20) / CostOf(compress.TagGZ).CompressBps * float64(time.Second))
	if d := got - want; d > time.Millisecond || d < -time.Millisecond {
		t.Fatalf("compress time = %v; want ~%v", got, want)
	}
	if CompressTime(compress.TagNone, 1<<20) != 0 {
		t.Fatal("TagNone must cost nothing")
	}
	if DecompressTime(compress.TagNone, 1<<20) != 0 {
		t.Fatal("TagNone must cost nothing")
	}
	if CompressTime(compress.TagLZF, 0) != 0 {
		t.Fatal("zero bytes must cost nothing")
	}
	// Ordering: bwz slowest, lz4 fastest.
	if !(CompressTime(compress.TagBWZ, 1<<20) > CompressTime(compress.TagGZ, 1<<20) &&
		CompressTime(compress.TagGZ, 1<<20) > CompressTime(compress.TagLZF, 1<<20) &&
		CompressTime(compress.TagLZF, 1<<20) > CompressTime(compress.TagLZ4, 1<<20)) {
		t.Fatal("cost ordering violated")
	}
	// Decompression faster than compression for every codec.
	for _, tag := range []compress.Tag{compress.TagLZF, compress.TagLZ4, compress.TagGZ, compress.TagBWZ} {
		if DecompressTime(tag, 1<<20) >= CompressTime(tag, 1<<20) {
			t.Fatalf("tag %d: decompress not faster than compress", tag)
		}
	}
}

// TestCostModelPanicsOnUnknownTag charges a tag no codec is priced at,
// both ways.
func TestCostModelPanicsOnUnknownTag(t *testing.T) {
	for name, charge := range map[string]func(compress.Tag, int64) time.Duration{
		"compress": CompressTime, "decompress": DecompressTime,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic for unknown tag", name)
				}
			}()
			charge(compress.MaxTag, 100)
		}()
	}
}

func TestContentAwareUpgrade(t *testing.T) {
	reg := defaultTestRegistry(t)
	base, err := DefaultElastic(reg)
	if err != nil {
		t.Fatal(err)
	}
	bwz, _ := reg.ByName("bwz")
	gz, _ := reg.ByName("gz")
	lzf, _ := reg.ByName("lzf")
	ca, err := NewContentAware(base, bwz, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Name() != "EDC+" {
		t.Fatalf("name = %q", ca.Name())
	}
	// Idle + very compressible -> heavy codec.
	if got := ca.SelectWithRatio(10, 5.0); got != bwz {
		t.Fatalf("idle/compressible = %v; want bwz", got.Name())
	}
	// Idle + ordinary compressibility -> stock gz.
	if got := ca.SelectWithRatio(10, 1.8); got != gz {
		t.Fatalf("idle/ordinary = %v; want gz", got.Name())
	}
	// Busy + very compressible -> stock lzf (no upgrade outside idle band).
	if got := ca.SelectWithRatio(DefaultGzCeiling+1, 5.0); got != lzf {
		t.Fatalf("busy/compressible = %v; want lzf", got.Name())
	}
	// Peak -> still skips compression.
	if got := ca.SelectWithRatio(1e9, 5.0); got != nil {
		t.Fatalf("peak = %v; want nil", got.Name())
	}
	if !ca.ChecksCompressibility() {
		t.Fatal("content-aware policy must use the estimator")
	}
}

func TestNewContentAwareValidation(t *testing.T) {
	reg := defaultTestRegistry(t)
	base, _ := DefaultElastic(reg)
	bwz, _ := reg.ByName("bwz")
	if _, err := NewContentAware(base, nil, 2); err == nil {
		t.Fatal("nil heavy codec should fail")
	}
	if _, err := NewContentAware(base, bwz, 0.5); err == nil {
		t.Fatal("MinRatio < 1 should fail")
	}
}
