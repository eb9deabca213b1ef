package bitio

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTripSimple(t *testing.T) {
	w := NewWriter(16)
	w.WriteBits(0b101, 3)
	w.WriteBits(0xff, 8)
	w.WriteBits(0, 1)
	w.WriteBits(0x1234, 16)
	data := w.Bytes()

	r := NewReader(data)
	if v, err := r.ReadBits(3); err != nil || v != 0b101 {
		t.Fatalf("ReadBits(3) = %v, %v; want 0b101", v, err)
	}
	if v, err := r.ReadBits(8); err != nil || v != 0xff {
		t.Fatalf("ReadBits(8) = %v, %v; want 0xff", v, err)
	}
	if v, err := r.ReadBits(1); err != nil || v != 0 {
		t.Fatalf("ReadBits(1) = %v, %v; want 0", v, err)
	}
	if v, err := r.ReadBits(16); err != nil || v != 0x1234 {
		t.Fatalf("ReadBits(16) = %v, %v; want 0x1234", v, err)
	}
}

func TestWriterAlignPadsWithZeros(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(1, 1)
	w.Align()
	w.WriteBits(0xab, 8)
	data := w.Bytes()
	if len(data) != 2 {
		t.Fatalf("len = %d; want 2", len(data))
	}
	if data[0] != 0x01 || data[1] != 0xab {
		t.Fatalf("data = %x; want 01ab", data)
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader([]byte{0xff})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("first read failed: %v", err)
	}
	if _, err := r.ReadBits(1); err != ErrUnexpectedEOF {
		t.Fatalf("err = %v; want ErrUnexpectedEOF", err)
	}
}

func TestPeekSkip(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0b110101, 6)
	w.WriteBits(0x3c, 8)
	r := NewReader(w.Bytes())

	v, avail := r.Peek(6)
	if avail != 6 || v != 0b110101 {
		t.Fatalf("Peek = %b (avail %d); want 110101 (6)", v, avail)
	}
	r.Skip(6)
	got, err := r.ReadBits(8)
	if err != nil || got != 0x3c {
		t.Fatalf("after skip ReadBits(8) = %x, %v; want 3c", got, err)
	}
}

func TestPeekShortInput(t *testing.T) {
	r := NewReader([]byte{0b101})
	v, avail := r.Peek(16)
	if avail != 8 {
		t.Fatalf("avail = %d; want 8", avail)
	}
	if v != 0b101 {
		t.Fatalf("v = %b; want 101", v)
	}
}

func TestReaderAlign(t *testing.T) {
	r := NewReader([]byte{0xff, 0x5a})
	if _, err := r.ReadBits(3); err != nil {
		t.Fatal(err)
	}
	r.Align()
	v, err := r.ReadBits(8)
	if err != nil || v != 0x5a {
		t.Fatalf("ReadBits after Align = %x, %v; want 5a", v, err)
	}
}

func TestBitLenAndRemaining(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0, 13)
	if w.BitLen() != 13 {
		t.Fatalf("BitLen = %d; want 13", w.BitLen())
	}
	r := NewReader(w.Bytes())
	if r.BitsRemaining() != 16 { // padded to 2 bytes
		t.Fatalf("BitsRemaining = %d; want 16", r.BitsRemaining())
	}
	if _, err := r.ReadBits(5); err != nil {
		t.Fatal(err)
	}
	if r.BitsRemaining() != 11 {
		t.Fatalf("BitsRemaining = %d; want 11", r.BitsRemaining())
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0xffff, 16)
	w.Reset()
	w.WriteBits(0x2, 2)
	data := w.Bytes()
	if len(data) != 1 || data[0] != 0x2 {
		t.Fatalf("after reset data = %x; want 02", data)
	}
}

// Property: any sequence of variable-width writes reads back identically.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		widths := make([]uint, count)
		values := make([]uint64, count)
		w := NewWriter(64)
		for i := 0; i < count; i++ {
			widths[i] = uint(rng.Intn(57)) + 1
			values[i] = rng.Uint64() & ((1 << widths[i]) - 1)
			w.WriteBits(values[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := 0; i < count; i++ {
			v, err := r.ReadBits(widths[i])
			if err != nil || v != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReaderMatchesBitwiseModel holds the reader — whose refill loads
// eight bytes at a time away from the end of the input and one at a time
// near it — to a bit-at-a-time model over mixed ReadBits, Peek/Skip and
// Align calls that run past the end of short and long inputs.
func TestReaderMatchesBitwiseModel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, rng.Intn(40))
		rng.Read(data)
		r := NewReader(data)
		pos := 0 // model: next unread bit
		bits := func(n int) (v uint64, avail int) {
			for k := 0; k < n && pos+k < len(data)*8; k++ {
				v |= uint64(data[(pos+k)/8]>>(uint(pos+k)%8)&1) << uint(k)
				avail++
			}
			return v, avail
		}
		for step := 0; step < 60; step++ {
			n := rng.Intn(58)
			switch rng.Intn(4) {
			case 0, 1:
				want, avail := bits(n)
				got, err := r.ReadBits(uint(n))
				if avail < n {
					if err != ErrUnexpectedEOF {
						t.Fatalf("trial %d: ReadBits(%d) with %d bits left: err %v", trial, n, avail, err)
					}
					continue
				}
				if err != nil || got != want {
					t.Fatalf("trial %d: ReadBits(%d) = %x, %v; want %x", trial, n, got, err, want)
				}
				pos += n
			case 2:
				want, avail := bits(n)
				got, gotAvail := r.Peek(uint(n))
				if got != want || int(gotAvail) != avail {
					t.Fatalf("trial %d: Peek(%d) = %x, %d; want %x, %d", trial, n, got, gotAvail, want, avail)
				}
				skip := rng.Intn(avail + 1)
				r.Skip(uint(skip))
				pos += skip
			default:
				r.Align()
				pos = (pos + 7) &^ 7
			}
			if got, want := r.BitsRemaining(), len(data)*8-pos; got != want {
				t.Fatalf("trial %d: BitsRemaining = %d; want %d", trial, got, want)
			}
		}
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := NewWriter(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%100000 == 0 {
			w.Reset()
		}
		w.WriteBits(uint64(i), 13)
	}
}

func BenchmarkReadBits(b *testing.B) {
	w := NewWriter(1 << 20)
	for i := 0; i < 100000; i++ {
		w.WriteBits(uint64(i), 13)
	}
	data := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	r := NewReader(data)
	for i := 0; i < b.N; i++ {
		if r.BitsRemaining() < 13 {
			r = NewReader(data)
		}
		if _, err := r.ReadBits(13); err != nil {
			b.Fatal(err)
		}
	}
}
