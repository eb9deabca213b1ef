package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"
)

// goldenOps is how many operations of each stream TestStreamGolden hashes.
const goldenOps = 100_000

// hotSmall and readVerify are the open-loop steps of perf/'s serve-hot-small
// and serve-read-verify workloads, whose D perf/ sets to 1000 h so that the
// operation count, not the duration, ends the stream.
var (
	hotSmall = Step{
		D: 1000 * time.Hour, QPS: 20000, RW: 0.9, AD: ArrivalPoisson, BS: 4 << 10,
		RKD: KeyChoice{Kind: KeyZipfian, Theta: 0.99},
		WKD: KeyChoice{Kind: KeyUniform},
	}
	readVerify = Step{
		D: 1000 * time.Hour, QPS: 1000, RW: 0.9, AD: ArrivalPoisson, BS: 16 << 10,
		RKD: KeyChoice{Kind: KeyUniform},
		WKD: KeyChoice{Kind: KeyUniform},
	}
)

// goldenStreams are the step shapes TestStreamGolden pins. Their digests
// were computed at commit 1b9cad9, before Stream.Next was rewritten to
// stop recomputing its per-step constants on every draw, and are not
// regenerated: an operation moving in any of them changes every serve
// result.
var goldenStreams = []struct {
	name     string
	spec     Spec
	vol      int64
	seed     int64
	workers  int // every worker's stream is hashed, worker 0 first
	ops      int // per worker
	wantHash string
}{
	{"hot-small", Spec{hotSmall}, 32 << 20, 1, 1, goldenOps,
		"eb8a5fe584d38f4c5cd379ca7a7ea9ec6f1920a11766164e98af7f0db4383836"},
	{"read-verify", Spec{readVerify}, 256 << 20, 2, 1, goldenOps,
		"36d37850a389b29e7b69802ccd45e797b07934577c564428881fc4f9a38d7c86"},
	{"uniform-arrivals", Spec{{
		D: 1000 * time.Hour, QPS: 7000, RW: 0.3, AD: ArrivalUniform, BS: 8 << 10,
		RKD: KeyChoice{Kind: KeyZipfian, Theta: 0.5},
		WKD: KeyChoice{Kind: KeyZipfian, Theta: 0.9},
	}}, 64 << 20, 3, 1, goldenOps,
		"7435d7022051aa969a686c6c99d4dc60c3d4625363234cc4bec986d9027e6858"},
	{"two-workers", Spec{hotSmall}, 32 << 20, 4, 2, goldenOps / 2,
		"043ff85831ff84969b0b6c540d918f6d66475b94e3070a167d8be8ad5212548e"},
	// The first step ends after about 50 000 operations; the second is a
	// tenant's, with its own size, keys and uniform arrivals.
	{"two-steps-tenant", Spec{
		{D: 2500 * time.Millisecond, QPS: 20000, RW: 0.5, AD: ArrivalPoisson, BS: 4 << 10,
			RKD: KeyChoice{Kind: KeyZipfian, Theta: 0.99}, WKD: KeyChoice{Kind: KeyUniform}},
		{D: 1000 * time.Hour, QPS: 3000, RW: 0.7, AD: ArrivalUniform, BS: 64 << 10,
			RKD: KeyChoice{Kind: KeyUniform}, WKD: KeyChoice{Kind: KeyZipfian, Theta: 0.8},
			Tenant: "gold"},
	}, 128 << 20, 5, 1, goldenOps,
		"dde4d73ff1e0efcc064a33ab063320c3997796f68918c96c2b4c88b94c374d39"},
}

// streamDigest hashes the first n operations of each of the workers'
// streams, every field of every Op.
func streamDigest(t testing.TB, spec Spec, vol, seed int64, workers, n int) string {
	h := sha256.New()
	var rec []byte
	for w := 0; w < workers; w++ {
		s, err := NewStream(spec, vol, seed, w, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			op, ok := s.Next()
			if !ok {
				t.Fatalf("worker %d: stream ended after %d of %d operations", w, i, n)
			}
			rec = binary.LittleEndian.AppendUint64(rec[:0], uint64(op.At))
			rec = binary.LittleEndian.AppendUint64(rec, uint64(op.Off))
			rec = binary.LittleEndian.AppendUint64(rec, uint64(op.Size))
			rec = binary.LittleEndian.AppendUint64(rec, uint64(op.Step))
			if op.Write {
				rec = append(rec, 1)
			} else {
				rec = append(rec, 0)
			}
			rec = append(append(rec, op.Tenant...), 0)
			h.Write(rec)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamGolden pins the open-loop generator's output: every serve
// workload and the serve goldens are functions of it.
func TestStreamGolden(t *testing.T) {
	for _, g := range goldenStreams {
		if got := streamDigest(t, g.spec, g.vol, g.seed, g.workers, g.ops); got != g.wantHash {
			t.Errorf("%s: operations moved: digest %s, want %s", g.name, got, g.wantHash)
		}
	}
}

// BenchmarkStreamNext times one draw at 32 MiB / 4 KiB on the
// serve-hot-small step (zipfian-0.99 read keys) and on the same step with
// uniform read keys. Each /pow row runs the same stream with its zipfian
// pickers' rank lookup removed: every draw past rank 1 evaluates
// math.Pow, as the generator did before the lookup (a uniform stream has
// none, so its /pow row is a control).
func BenchmarkStreamNext(b *testing.B) {
	uniform := hotSmall
	uniform.RKD = KeyChoice{Kind: KeyUniform}
	for _, c := range []struct {
		name string
		step Step
	}{{"zipfian-0.99", hotSmall}, {"uniform", uniform}} {
		for _, pow := range []bool{false, true} {
			name := c.name
			if pow {
				name += "/pow"
			}
			b.Run(name, func(b *testing.B) {
				s, err := NewStream(Spec{c.step}, 32<<20, 1, 0, 1)
				if err != nil {
					b.Fatal(err)
				}
				if pow {
					for _, p := range s.pickers {
						if z, ok := p.(*zipfKeys); ok {
							z.cuts = nil
						}
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := s.Next(); !ok {
						b.Fatal("stream ended")
					}
				}
			})
		}
	}
}
