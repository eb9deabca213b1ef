package core

import (
	"slices"
	"testing"
	"time"

	"edc/internal/sim"
	"edc/internal/trace"
)

// admission records one request reaching the write/read path.
type admission struct {
	idx int // request index (encoded in the offset)
	at  time.Duration
}

// runFrontend replays reqs through a frontend whose downstream stages are
// stubs completing each request after svc of virtual time, and returns
// the admissions in order.
func runFrontend(t *testing.T, maxInFlight int64, svc time.Duration, reqs []trace.Request) []admission {
	t.Helper()
	eng := sim.NewEngine()
	fe := &frontend{
		eng:         eng,
		fs:          &failState{},
		stats:       newRunStats("test", "unit", "stub"),
		meter:       newDualMonitor(500*time.Millisecond, 10),
		volBytes:    1 << 30,
		maxInFlight: maxInFlight,
	}
	var got []admission
	record := func(off int64, write bool) {
		got = append(got, admission{idx: int(off / BlockSize), at: eng.Now()})
		issue := eng.Now()
		eng.ScheduleAfter(svc, func() { fe.finish(eng.Now()-issue, write) })
	}
	fe.onWrite = func(w PendingWrite) { record(w.Offset, true) }
	fe.onRead = func(_ time.Duration, off, _ int64, _ func(time.Duration)) { record(off, false) }

	tr := &trace.Trace{Name: "unit", Requests: reqs}
	fe.start(tr)
	eng.Run()
	if fe.inFlight != 0 {
		t.Fatalf("%d requests still in flight after drain", fe.inFlight)
	}
	if got := fe.stats.Requests; got != int64(len(reqs)) {
		t.Fatalf("stats.Requests = %d, want %d", got, len(reqs))
	}
	return got
}

// req builds a test request whose index is recoverable from its offset.
func req(idx int, at time.Duration, write bool) trace.Request {
	return trace.Request{
		Arrival: at, Offset: int64(idx) * BlockSize, Size: BlockSize, Write: write,
	}
}

// TestFrontendAdmissionOrder drives the closed-loop admission seam
// through its cases: unbounded admission at arrival time, deferral past
// the outstanding bound with FIFO release on completion, and traces with
// out-of-order arrival stamps, which stream a stably sorted copy and
// leave the caller's requests as they were.
func TestFrontendAdmissionOrder(t *testing.T) {
	const svc = 100 * time.Microsecond
	cases := []struct {
		name        string
		maxInFlight int64
		reqs        []trace.Request
		wantIdx     []int
		wantAt      []time.Duration
	}{
		{
			name:        "unbounded admits at arrival",
			maxInFlight: 1 << 30,
			reqs: []trace.Request{
				req(0, 0, true), req(1, 10*time.Microsecond, false), req(2, 20*time.Microsecond, true),
			},
			wantIdx: []int{0, 1, 2},
			wantAt:  []time.Duration{0, 10 * time.Microsecond, 20 * time.Microsecond},
		},
		{
			name:        "bound 1 serializes same-time burst in trace order",
			maxInFlight: 1,
			reqs: []trace.Request{
				req(0, 0, true), req(1, 0, true), req(2, 0, true),
			},
			wantIdx: []int{0, 1, 2},
			wantAt:  []time.Duration{0, svc, 2 * svc},
		},
		{
			name:        "bound 2 admits pairwise",
			maxInFlight: 2,
			reqs: []trace.Request{
				req(0, 0, true), req(1, 0, false), req(2, 0, true), req(3, 0, false),
			},
			wantIdx: []int{0, 1, 2, 3},
			wantAt:  []time.Duration{0, 0, svc, svc},
		},
		{
			name:        "late arrival admits immediately once a slot is free",
			maxInFlight: 1,
			reqs: []trace.Request{
				req(0, 0, true), req(1, svc+50*time.Microsecond, true),
			},
			wantIdx: []int{0, 1},
			wantAt:  []time.Duration{0, svc + 50*time.Microsecond},
		},
		{
			name:        "unsorted trace streams a sorted copy",
			maxInFlight: 1 << 30,
			reqs: []trace.Request{
				req(0, 20*time.Microsecond, true), req(1, 0, true), req(2, 10*time.Microsecond, false),
			},
			wantIdx: []int{1, 2, 0},
			wantAt:  []time.Duration{0, 10 * time.Microsecond, 20 * time.Microsecond},
		},
		{
			name:        "equal out-of-order stamps admit in trace order",
			maxInFlight: 1 << 30,
			reqs: []trace.Request{
				req(0, 20*time.Microsecond, true), req(1, 10*time.Microsecond, false),
				req(2, 20*time.Microsecond, false), req(3, 10*time.Microsecond, true),
			},
			wantIdx: []int{1, 3, 0, 2},
			wantAt:  []time.Duration{10 * time.Microsecond, 10 * time.Microsecond, 20 * time.Microsecond, 20 * time.Microsecond},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			given := slices.Clone(tc.reqs)
			got := runFrontend(t, tc.maxInFlight, svc, tc.reqs)
			if !slices.Equal(tc.reqs, given) {
				t.Fatalf("start reordered the caller's requests: %v, was %v", tc.reqs, given)
			}
			if len(got) != len(tc.wantIdx) {
				t.Fatalf("admitted %d requests, want %d", len(got), len(tc.wantIdx))
			}
			for i := range got {
				if got[i].idx != tc.wantIdx[i] || got[i].at != tc.wantAt[i] {
					t.Errorf("admission %d = (req %d at %v), want (req %d at %v)",
						i, got[i].idx, got[i].at, tc.wantIdx[i], tc.wantAt[i])
				}
			}
		})
	}
}

// TestAlignRequest pins the block-alignment rules the frontend applies
// before any stage sees a request.
func TestAlignRequest(t *testing.T) {
	const vol = 64 * BlockSize
	cases := []struct {
		name              string
		off, size         int64
		wantOff, wantSize int64
	}{
		{"aligned passthrough", BlockSize, BlockSize, BlockSize, BlockSize},
		{"head and tail rounding", BlockSize + 1, BlockSize, BlockSize, 2 * BlockSize},
		{"zero size becomes one block", 0, 0, 0, BlockSize},
		{"offset wraps modulo volume", vol + 3*BlockSize, BlockSize, 3 * BlockSize, BlockSize},
		{"tail clamped inside volume", vol - BlockSize, 2 * BlockSize, vol - 2*BlockSize, 2 * BlockSize},
	}
	for _, tc := range cases {
		off, size := alignRequest(vol, trace.Request{Offset: tc.off, Size: tc.size})
		if off != tc.wantOff || size != tc.wantSize {
			t.Errorf("%s: alignRequest(%d, %d) = (%d, %d), want (%d, %d)",
				tc.name, tc.off, tc.size, off, size, tc.wantOff, tc.wantSize)
		}
	}
}
