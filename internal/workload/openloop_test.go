package workload

import (
	"math"
	"sort"
	"testing"
	"time"
)

// oneStep is a single-step spec for the statistical tests.
func oneStep(d time.Duration, qps, rw float64, ad ArrivalKind, rkd, wkd KeyChoice) Spec {
	return Spec{{D: d, QPS: qps, RW: rw, AD: ad, RKD: rkd, WKD: wkd, BS: 4096}}
}

// collect drains a stream into a slice.
func collect(t *testing.T, spec Spec, vol, seed int64, worker, workers int) []Op {
	t.Helper()
	s, err := NewStream(spec, vol, seed, worker, workers)
	if err != nil {
		t.Fatal(err)
	}
	var ops []Op
	for {
		op, ok := s.Next()
		if !ok {
			return ops
		}
		ops = append(ops, op)
	}
}

// TestPoissonInterarrivals checks the exponential interarrival law: the
// sample mean tracks 1/rate and the coefficient of variation tracks 1
// (the memoryless signature a uniform process would fail).
func TestPoissonInterarrivals(t *testing.T) {
	const qps = 2000.0
	spec := oneStep(10*time.Second, qps, 0.5, ArrivalPoisson,
		KeyChoice{Kind: KeyUniform}, KeyChoice{Kind: KeyUniform})
	ops := collect(t, spec, 1<<26, 42, 0, 1)
	if len(ops) < 10000 {
		t.Fatalf("only %d ops generated", len(ops))
	}
	var gaps []float64
	for i := 1; i < len(ops); i++ {
		gaps = append(gaps, float64(ops[i].At-ops[i-1].At)/float64(time.Second))
	}
	mean, sd := meanStd(gaps)
	want := 1 / qps
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mean interarrival %.6fs, want %.6fs ±5%%", mean, want)
	}
	if cv := sd / mean; math.Abs(cv-1) > 0.05 {
		t.Errorf("interarrival CV %.3f, want ~1 (exponential)", cv)
	}
}

// TestUniformInterarrivals checks deterministic spacing: every gap is
// exactly workers/qps, and two workers' trains are phase-staggered.
func TestUniformInterarrivals(t *testing.T) {
	const qps = 1000.0
	spec := oneStep(time.Second, qps, 0.5, ArrivalUniform,
		KeyChoice{Kind: KeyUniform}, KeyChoice{Kind: KeyUniform})
	a := collect(t, spec, 1<<26, 1, 0, 2)
	b := collect(t, spec, 1<<26, 1, 1, 2)
	spacing := time.Duration(2 / qps * float64(time.Second))
	for i := 1; i < len(a); i++ {
		if got := a[i].At - a[i-1].At; got != spacing {
			t.Fatalf("worker 0 gap %v, want %v", got, spacing)
		}
	}
	if len(b) == 0 || b[0].At != a[0].At+spacing/2 {
		t.Fatalf("worker 1 phase %v, want %v", b[0].At, a[0].At+spacing/2)
	}
}

// TestReadWriteMix checks the rw fraction over a large sample.
func TestReadWriteMix(t *testing.T) {
	const rw = 0.3
	spec := oneStep(20*time.Second, 2500, rw, ArrivalPoisson,
		KeyChoice{Kind: KeyUniform}, KeyChoice{Kind: KeyUniform})
	ops := collect(t, spec, 1<<26, 7, 0, 1)
	reads := 0
	for _, op := range ops {
		if !op.Write {
			reads++
		}
	}
	got := float64(reads) / float64(len(ops))
	if math.Abs(got-rw) > 0.02 {
		t.Errorf("read fraction %.3f over %d ops, want %.2f ±0.02", got, len(ops), rw)
	}
}

// TestZipfianSlope checks the rank-frequency law: sorting block
// frequencies descending, log(freq) against log(rank) regresses to a
// slope of -theta (scrambling is a bijection, so the sorted frequency
// profile is exactly the unscrambled zipfian's).
func TestZipfianSlope(t *testing.T) {
	const theta = 0.99
	vol := int64(1024 * 4096) // 1024 blocks
	spec := oneStep(40*time.Second, 5000, 0, ArrivalPoisson,
		KeyChoice{Kind: KeyUniform}, KeyChoice{Kind: KeyZipfian, Theta: theta})
	ops := collect(t, spec, vol, 99, 0, 1)
	freq := make(map[int64]int)
	for _, op := range ops {
		freq[op.Off/4096]++
	}
	counts := make([]int, 0, len(freq))
	for _, n := range freq {
		counts = append(counts, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	// Regress over the top ranks, where the bounded zipfian matches the
	// pure power law best.
	var xs, ys []float64
	for i := 0; i < 64 && i < len(counts); i++ {
		xs = append(xs, math.Log(float64(i+1)))
		ys = append(ys, math.Log(float64(counts[i])))
	}
	slope := fitSlope(xs, ys)
	if math.Abs(slope-(-theta)) > 0.15 {
		t.Errorf("rank-frequency slope %.3f over %d ops, want %.2f ±0.15", slope, len(ops), -theta)
	}
	// The skew must concentrate mass: the hottest block of 1024 gets far
	// more than the uniform share.
	if float64(counts[0]) < 20*float64(len(ops))/1024 {
		t.Errorf("hottest block got %d of %d ops — no visible skew", counts[0], len(ops))
	}
}

// TestZipfianScramble checks the hot ranks scatter across the volume
// instead of clustering at offset zero.
func TestZipfianScramble(t *testing.T) {
	z := newZipfKeys(1<<16, 0.99)
	spec := oneStep(5*time.Second, 2000, 0, ArrivalPoisson,
		KeyChoice{Kind: KeyUniform}, KeyChoice{Kind: KeyZipfian, Theta: 0.99})
	vol := int64(1<<16) * 4096
	ops := collect(t, spec, vol, 3, 0, 1)
	low := 0
	for _, op := range ops {
		if op.Off < vol/4 {
			low++
		}
	}
	// Unscrambled zipfian would put nearly all mass in the first quarter;
	// scrambled should be roughly proportional.
	if frac := float64(low) / float64(len(ops)); frac > 0.5 {
		t.Errorf("%.0f%% of zipfian ops landed in the first quarter of the volume — ranks not scrambled", 100*frac)
	}
	_ = z
}

// TestStreamDeterminism checks the same (seed, worker) produces the
// byte-identical operation sequence, and different workers diverge.
func TestStreamDeterminism(t *testing.T) {
	spec, err := ParseSpec("d=2s qps=800 rw=0.4 ad=poisson rkd=zipfian-0.9 wkd=uniform bs=8192\nd=1s qps=1600 ad=uniform")
	if err != nil {
		t.Fatal(err)
	}
	vol := int64(1 << 26)
	a := collect(t, spec, vol, 1234, 2, 4)
	b := collect(t, spec, vol, 1234, 2, 4)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := collect(t, spec, vol, 1234, 3, 4)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("workers 2 and 3 produced identical streams")
	}
}

// TestStreamSteps checks multi-step progression: arrival stamps are
// monotone, stay within each step's window, and the per-step offered
// rate shifts with qps.
func TestStreamSteps(t *testing.T) {
	spec, err := ParseSpec("d=2s qps=500\nqps=2000 d=2s")
	if err != nil {
		t.Fatal(err)
	}
	ops := collect(t, spec, 1<<26, 5, 0, 1)
	var n0, n1 int
	var last time.Duration
	for _, op := range ops {
		if op.At < last {
			t.Fatalf("arrival went backwards: %v after %v", op.At, last)
		}
		last = op.At
		switch op.Step {
		case 0:
			n0++
			if op.At >= 2*time.Second {
				t.Fatalf("step-0 op stamped %v, beyond the step window", op.At)
			}
		case 1:
			n1++
			if op.At < 2*time.Second || op.At >= 4*time.Second {
				t.Fatalf("step-1 op stamped %v, outside [2s,4s)", op.At)
			}
		}
	}
	if n0 < 800 || n0 > 1200 {
		t.Errorf("step 0 produced %d ops, want ~1000", n0)
	}
	if n1 < 3500 || n1 > 4500 {
		t.Errorf("step 1 produced %d ops, want ~4000", n1)
	}
}

// TestNewStreamValidation covers the constructor error paths.
func TestNewStreamValidation(t *testing.T) {
	good := oneStep(time.Second, 100, 0.5, ArrivalPoisson,
		KeyChoice{Kind: KeyUniform}, KeyChoice{Kind: KeyUniform})
	for _, tc := range []struct {
		name  string
		spec  Spec
		vol   int64
		w, ws int
	}{
		{"empty spec", Spec{}, 1 << 20, 0, 1},
		{"zero qps", Spec{{D: time.Second, BS: 4096}}, 1 << 20, 0, 1},
		{"zero duration", Spec{{QPS: 10, BS: 4096}}, 1 << 20, 0, 1},
		{"bad theta", Spec{{D: time.Second, QPS: 10, BS: 4096,
			RKD: KeyChoice{Kind: KeyZipfian, Theta: 1.5}}}, 1 << 20, 0, 1},
		{"bs over volume", Spec{{D: time.Second, QPS: 10, BS: 1 << 21}}, 1 << 20, 0, 1},
		{"worker out of range", good, 1 << 20, 4, 4},
		{"zero workers", good, 1 << 20, 0, 0},
	} {
		if _, err := NewStream(tc.spec, tc.vol, 1, tc.w, tc.ws); err == nil {
			t.Errorf("%s: NewStream accepted invalid input", tc.name)
		}
	}
}

// meanStd returns the sample mean and standard deviation.
func meanStd(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}

// fitSlope is least-squares slope of ys against xs.
func fitSlope(xs, ys []float64) float64 {
	mx, _ := meanStd(xs)
	my, _ := meanStd(ys)
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	return num / den
}

// TestStreamSharesPickers checks a stream builds one key picker per
// (kind, theta, block count): a step's two directions share one when
// they agree, a later step reuses an earlier step's, and a uniform
// choice's theta, which it ignores, does not split it.
func TestStreamSharesPickers(t *testing.T) {
	z := KeyChoice{Kind: KeyZipfian, Theta: 0.99}
	spec := Spec{
		{D: time.Second, QPS: 1000, RW: 0.5, BS: 4 << 10, RKD: z, WKD: z},
		{D: time.Second, QPS: 1000, RW: 0.5, BS: 4 << 10, RKD: z, WKD: KeyChoice{Kind: KeyUniform, Theta: 0.3}},
		{D: time.Second, QPS: 1000, RW: 0.5, BS: 8 << 10, RKD: z, WKD: KeyChoice{Kind: KeyUniform}},
	}
	s, err := NewStream(spec, 32<<20, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	hot := s.reads
	if s.wris != hot {
		t.Fatal("step 1: equal read and write choices built two pickers")
	}
	for step := 1; step < len(spec); step++ {
		for s.step < step {
			if _, ok := s.Next(); !ok {
				t.Fatalf("stream ended before step %d", step+1)
			}
		}
		if same := s.reads == hot; same != (step == 1) {
			t.Errorf("step %d: read picker shared with step 1 = %v", step+1, same)
		}
	}
	if len(s.pickers) != 4 {
		t.Errorf("built %d pickers, want 4 (zipfian and uniform at two block counts)", len(s.pickers))
	}
}
