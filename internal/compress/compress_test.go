package compress

import (
	"bytes"
	"testing"
)

func TestNoneRoundTrip(t *testing.T) {
	src := []byte("hello, flash storage")
	c := None.AppendCompress(nil, src)
	if !bytes.Equal(c, src) {
		t.Fatalf("None.AppendCompress changed data")
	}
	d, err := None.DecompressAppend(nil, c, len(src))
	if err != nil || !bytes.Equal(d, src) {
		t.Fatalf("None.DecompressAppend = %q, %v", d, err)
	}
}

func TestNoneSizeMismatch(t *testing.T) {
	if _, err := None.DecompressAppend(nil, []byte("abc"), 5); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestRegistryRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	if _, err := r.ByTag(TagNone); err != nil {
		t.Fatalf("ByTag(TagNone): %v", err)
	}
	if _, err := r.ByName("none"); err != nil {
		t.Fatalf("ByName(none): %v", err)
	}
	if _, err := r.ByTag(TagLZF); err == nil {
		t.Fatal("expected unknown tag error in fresh registry")
	}
	if _, err := r.ByTag(99); err == nil {
		t.Fatal("expected error for tag > MaxTag")
	}
}

type fakeCodec struct {
	name string
	tag  Tag
}

func (f fakeCodec) Name() string                          { return f.name }
func (f fakeCodec) Tag() Tag                              { return f.tag }
func (f fakeCodec) AppendCompress(dst, src []byte) []byte { return append(dst, src...) }
func (f fakeCodec) DecompressAppend(dst, s []byte, n int) ([]byte, error) {
	return append(dst, s...), nil
}

func TestRegistryConflicts(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(fakeCodec{"x", 5}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(fakeCodec{"y", 5}); err == nil {
		t.Fatal("expected tag conflict")
	}
	if err := r.Register(fakeCodec{"x", 6}); err == nil {
		t.Fatal("expected name conflict")
	}
	if err := r.Register(fakeCodec{"z", 9}); err == nil {
		t.Fatal("expected out-of-range tag error")
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(4096, 2048); got != 2.0 {
		t.Fatalf("Ratio = %v; want 2.0", got)
	}
	if got := Ratio(4096, 0); got != 0 {
		t.Fatalf("Ratio with zero divisor = %v; want 0", got)
	}
}

func TestMatchLen(t *testing.T) {
	// Every common-prefix length 0..40 at every limit, against a byte loop.
	src := make([]byte, 100)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	const a, b = 3, 50
	for same := 0; same <= 40; same++ {
		copy(src[b:], src[a:a+same])
		src[b+same] = src[a+same] + 1
		for limit := 0; limit <= 45; limit++ {
			if got, want := MatchLen(src, a, b, limit), min(same, limit); got != want {
				t.Fatalf("MatchLen(same %d, limit %d) = %d; want %d", same, limit, got, want)
			}
		}
	}
}
