package huffman

import (
	"math/rand"
	"testing"
	"testing/quick"

	"edc/internal/bitio"
)

func roundTrip(t *testing.T, freqs []int64, symbols []int) {
	t.Helper()
	lengths, err := BuildLengths(freqs, MaxBits)
	if err != nil {
		t.Fatalf("BuildLengths: %v", err)
	}
	enc, err := NewEncoderFromLengths(lengths)
	if err != nil {
		t.Fatalf("NewEncoderFromLengths: %v", err)
	}
	dec, err := NewDecoderFromLengths(lengths)
	if err != nil {
		t.Fatalf("NewDecoderFromLengths: %v", err)
	}
	w := bitio.NewWriter(len(symbols))
	for _, s := range symbols {
		if err := enc.Encode(w, s); err != nil {
			t.Fatalf("Encode(%d): %v", s, err)
		}
	}
	r := bitio.NewReader(w.Bytes())
	for i, want := range symbols {
		got, err := dec.Decode(r)
		if err != nil {
			t.Fatalf("Decode at %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("Decode at %d = %d; want %d", i, got, want)
		}
	}
}

func TestRoundTripTwoSymbols(t *testing.T) {
	freqs := []int64{5, 3}
	roundTrip(t, freqs, []int{0, 1, 1, 0, 0, 0, 1})
}

func TestRoundTripSingleSymbol(t *testing.T) {
	freqs := []int64{0, 7, 0}
	roundTrip(t, freqs, []int{1, 1, 1, 1})
}

func TestRoundTripSkewedAlphabet(t *testing.T) {
	freqs := make([]int64, 256)
	// Exponentially skewed: forces a deep tree that must be length-limited.
	f := int64(1)
	for i := 0; i < 256; i++ {
		freqs[i] = f
		if i%8 == 7 {
			f *= 2
		}
	}
	syms := make([]int, 0, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		syms = append(syms, rng.Intn(256))
	}
	roundTrip(t, freqs, syms)
}

func TestLengthLimitRespected(t *testing.T) {
	// Fibonacci-like frequencies produce maximally deep Huffman trees.
	freqs := make([]int64, 40)
	a, b := int64(1), int64(1)
	for i := range freqs {
		freqs[i] = a
		a, b = b, a+b
	}
	for _, maxBits := range []int{8, 10, 15} {
		lengths, err := BuildLengths(freqs, maxBits)
		if err != nil {
			t.Fatalf("BuildLengths(max=%d): %v", maxBits, err)
		}
		k := 0
		for _, l := range lengths {
			if int(l) > maxBits {
				t.Fatalf("length %d exceeds limit %d", l, maxBits)
			}
			if l > 0 {
				k += 1 << uint(MaxBits-int(l))
			}
		}
		if k != 1<<MaxBits {
			t.Fatalf("max=%d: Kraft sum %d != %d (code not complete)", maxBits, k, 1<<MaxBits)
		}
		if _, err := NewDecoderFromLengths(lengths); err != nil {
			t.Fatalf("decoder rejects limited lengths: %v", err)
		}
	}
}

func TestEmptyAlphabet(t *testing.T) {
	lengths, err := BuildLengths(make([]int64, 10), MaxBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lengths {
		if l != 0 {
			t.Fatalf("expected all-zero lengths, got %v", lengths)
		}
	}
}

func TestEncodeUnknownSymbolFails(t *testing.T) {
	lengths, _ := BuildLengths([]int64{1, 1, 0}, MaxBits)
	enc, err := NewEncoderFromLengths(lengths)
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(4)
	if err := enc.Encode(w, 2); err == nil {
		t.Fatal("expected error encoding unused symbol")
	}
	if err := enc.Encode(w, 99); err == nil {
		t.Fatal("expected error encoding out-of-range symbol")
	}
}

func TestInvalidLengthsRejected(t *testing.T) {
	// Over-subscribed: three codes of length 1.
	if _, err := NewDecoderFromLengths([]uint8{1, 1, 1}); err == nil {
		t.Fatal("expected error for over-subscribed code")
	}
	// Incomplete: single length-2 code.
	if _, err := NewDecoderFromLengths([]uint8{2}); err == nil {
		t.Fatal("expected error for incomplete code")
	}
}

func TestWriteReadLengths(t *testing.T) {
	cases := [][]uint8{
		{},
		{1, 1},
		{0, 0, 0, 0, 5, 0, 3, 15, 0},
		make([]uint8, 300), // long zero run
	}
	cases[3][299] = 7
	for i, lens := range cases {
		w := bitio.NewWriter(64)
		WriteLengths(w, lens)
		r := bitio.NewReader(w.Bytes())
		got, err := ReadLengths(r, len(lens))
		if err != nil {
			t.Fatalf("case %d: ReadLengths: %v", i, err)
		}
		for j := range lens {
			if got[j] != lens[j] {
				t.Fatalf("case %d: lengths[%d] = %d; want %d", i, j, got[j], lens[j])
			}
		}
	}
}

// Property: encode/decode round-trips for random frequency tables.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 2
		freqs := make([]int64, n)
		for i := range freqs {
			if rng.Intn(4) > 0 { // ~25% of symbols unused
				freqs[i] = int64(rng.Intn(10000)) + 1
			}
		}
		present := []int{}
		for i, fq := range freqs {
			if fq > 0 {
				present = append(present, i)
			}
		}
		if len(present) == 0 {
			return true
		}
		syms := make([]int, 256)
		for i := range syms {
			syms[i] = present[rng.Intn(len(present))]
		}
		lengths, err := BuildLengths(freqs, MaxBits)
		if err != nil {
			return false
		}
		enc, err := NewEncoderFromLengths(lengths)
		if err != nil {
			return false
		}
		dec, err := NewDecoderFromLengths(lengths)
		if err != nil {
			return false
		}
		w := bitio.NewWriter(512)
		for _, s := range syms {
			if err := enc.Encode(w, s); err != nil {
				return false
			}
		}
		r := bitio.NewReader(w.Bytes())
		for _, want := range syms {
			got, err := dec.Decode(r)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: compressed size is never worse than a flat fixed-width code by
// more than the table overhead would explain (sanity on optimality).
func TestHuffmanBeatsFlatCodeOnSkewedData(t *testing.T) {
	freqs := make([]int64, 16)
	freqs[0] = 1000
	for i := 1; i < 16; i++ {
		freqs[i] = 1
	}
	lengths, err := BuildLengths(freqs, MaxBits)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i, fq := range freqs {
		total += fq * int64(lengths[i])
	}
	flat := int64(1015 * 4)
	if total >= flat {
		t.Fatalf("huffman bits %d not better than flat %d", total, flat)
	}
}

func BenchmarkEncode(b *testing.B) {
	freqs := make([]int64, 256)
	rng := rand.New(rand.NewSource(7))
	for i := range freqs {
		freqs[i] = int64(rng.Intn(1000)) + 1
	}
	lengths, _ := BuildLengths(freqs, MaxBits)
	enc, _ := NewEncoderFromLengths(lengths)
	w := bitio.NewWriter(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%65536 == 0 {
			w.Reset()
		}
		_ = enc.Encode(w, i&0xff)
	}
}

func BenchmarkDecode(b *testing.B) {
	freqs := make([]int64, 256)
	rng := rand.New(rand.NewSource(7))
	for i := range freqs {
		freqs[i] = int64(rng.Intn(1000)) + 1
	}
	lengths, _ := BuildLengths(freqs, MaxBits)
	enc, _ := NewEncoderFromLengths(lengths)
	dec, _ := NewDecoderFromLengths(lengths)
	w := bitio.NewWriter(1 << 16)
	const n = 8192
	for i := 0; i < n; i++ {
		_ = enc.Encode(w, i&0xff)
	}
	data := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	r := bitio.NewReader(data)
	cnt := 0
	for i := 0; i < b.N; i++ {
		if cnt == n {
			r = bitio.NewReader(data)
			cnt = 0
		}
		if _, err := dec.Decode(r); err != nil {
			b.Fatal(err)
		}
		cnt++
	}
}

// TestResetValuesAndTable holds the two decode-side views of one code to
// each other: Decode returns the caller's value for the symbol, short
// code or long, and every slot of Table names the symbol whose code
// begins the slot's index, or nothing when no code that short does.
func TestResetValuesAndTable(t *testing.T) {
	freqs := make([]int64, 256)
	f := int64(1)
	for i := range freqs { // skewed: codes from 2 bits to the 15-bit limit
		freqs[i] = f
		if i%8 == 7 {
			f *= 2
		}
	}
	lengths, err := BuildLengths(freqs, MaxBits)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoderFromLengths(lengths)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]uint32, len(lengths))
	for sym := range values {
		values[sym] = uint32(sym)*3 + 7
	}
	var dec Decoder
	if err := dec.ResetValues(lengths, values); err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(1024)
	for sym := range lengths {
		if err := enc.Encode(w, sym); err != nil {
			t.Fatal(err)
		}
	}
	r := bitio.NewReader(w.Bytes())
	long := 0
	for sym := range lengths {
		got, err := dec.Decode(r)
		if err != nil || got != int(values[sym]) {
			t.Fatalf("Decode of symbol %d = %d, %v; want its value %d", sym, got, err, values[sym])
		}
		if enc.CodeLen(sym) > maxTableBits {
			long++
		}
	}
	if long == 0 {
		t.Fatal("no code longer than the table index: the slow path went untested")
	}
	tab := dec.Table()
	if len(tab) != 1<<maxTableBits {
		t.Fatalf("table has %d slots, want %d", len(tab), 1<<maxTableBits)
	}
	for i, e := range tab {
		want := uint32(0)
		for sym := range lengths {
			if c := enc.Code(sym); c.Len <= maxTableBits && i&(1<<c.Len-1) == int(c.Bits) {
				want = values[sym]<<4 | uint32(c.Len)
			}
		}
		if e != want {
			t.Fatalf("slot %#x holds %#x, want %#x", i, e, want)
		}
	}
	if err := dec.Reset(make([]uint8, 4)); err != nil || len(dec.Table()) != 0 {
		t.Fatalf("empty code: Reset %v, table of %d slots; want nil and none", err, len(dec.Table()))
	}
}
