package dedup

import "testing"

// payload is n bytes of a fixed pattern that is neither constant nor
// zero-tailed.
func payload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*131 + i>>3 + 1)
	}
	return p
}

// lengths covers the empty payload, every tail length around one and two
// words, and block-sized inputs with and without a tail.
var lengths = []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 23, 24, 511, 512, 513, 4096, 4099}

func TestHashSumDeterministic(t *testing.T) {
	for _, n := range lengths {
		p := payload(n)
		a := HashSum(DefaultKey, p)
		if b := HashSum(DefaultKey, append([]byte(nil), p...)); a != b {
			t.Fatalf("len %d: equal content hashed to %v and %v", n, a, b)
		}
		if a.Hi == a.Lo {
			t.Fatalf("len %d: the two lanes agree (%#x): they are not independently seeded", n, a.Hi)
		}
	}
}

func TestHashSumSensitiveToKey(t *testing.T) {
	for _, n := range lengths {
		p := payload(n)
		base := HashSum(DefaultKey, p)
		for _, key := range []uint64{0, 1, DefaultKey ^ 1, DefaultKey ^ 1<<63, ^uint64(DefaultKey)} {
			got := HashSum(key, p)
			if got.Hi == base.Hi || got.Lo == base.Lo {
				t.Fatalf("len %d: key %#x shares a lane with the default key", n, key)
			}
		}
	}
}

func TestHashSumSensitiveToContent(t *testing.T) {
	for _, n := range lengths {
		p := payload(n)
		base := HashSum(DefaultKey, p)
		// Every byte, tail bytes included, reaches both lanes.
		for i := range p {
			for _, bit := range []byte{0x01, 0x80} {
				p[i] ^= bit
				got := HashSum(DefaultKey, p)
				p[i] ^= bit
				if got.Hi == base.Hi || got.Lo == base.Lo {
					t.Fatalf("len %d: flipping bit %#x of byte %d left a lane unchanged", n, bit, i)
				}
			}
		}
		// Swapping two words is a change too: the chain is order-sensitive.
		if n >= 16 {
			q := append([]byte(nil), p...)
			copy(q[:8], p[8:16])
			copy(q[8:16], p[:8])
			if HashSum(DefaultKey, q) == base {
				t.Fatalf("len %d: swapping the first two words left the sum unchanged", n)
			}
		}
	}
}

func TestHashSumSensitiveToLength(t *testing.T) {
	seen := map[Sum]int{}
	// All-zero payloads differ only in length, the case a hash that
	// zero-pads its tail without mixing the length in gets wrong.
	zeros := make([]byte, 4100)
	for n := 0; n <= len(zeros); n++ {
		s := HashSum(DefaultKey, zeros[:n])
		if m, dup := seen[s]; dup {
			t.Fatalf("zero payloads of %d and %d bytes share sum %v", m, n, s)
		}
		seen[s] = n
	}
	// A prefix never hashes like the whole, and a tail byte that equals
	// its padding (zero) still counts.
	for _, n := range lengths {
		p := payload(n)
		whole := HashSum(DefaultKey, p)
		if n > 0 && HashSum(DefaultKey, p[:n-1]) == whole {
			t.Fatalf("len %d: dropping the last byte left the sum unchanged", n)
		}
		if HashSum(DefaultKey, append(p, 0)) == whole {
			t.Fatalf("len %d: appending a zero byte left the sum unchanged", n)
		}
	}
}
