package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// engine is the surface of Engine the lockstep test drives; refEngine
// implements it too.
type engine interface {
	Now() time.Duration
	Schedule(at time.Duration, fn func())
	SchedulePriority(at time.Duration, fn func())
	ScheduleAfter(d time.Duration, fn func())
	ScheduleHousekeepingAfter(d time.Duration, fn func())
	Step() bool
	RunUntil(t time.Duration)
	RunPending()
	Pending() int
	PendingWork() int
}

// refEngine is the reference event queue: one slice kept sorted by
// (at, pri, seq), popped from the front.
type refEngine struct {
	now time.Duration
	q   []refEvent
	seq int64
}

type refEvent struct {
	at  time.Duration
	pri int
	seq int64
	hk  bool
	fn  func()
}

func (r *refEngine) add(at time.Duration, pri int, hk bool, fn func()) {
	if at < r.now {
		panic("ref: scheduling in the past")
	}
	ev := refEvent{at: at, pri: pri, seq: r.seq, hk: hk, fn: fn}
	r.seq++
	// seq grows, so ev goes after every queued event of its (at, pri).
	i := sort.Search(len(r.q), func(i int) bool {
		q := r.q[i]
		return q.at > at || q.at == at && q.pri > pri
	})
	r.q = slices.Insert(r.q, i, ev)
}

func (r *refEngine) Now() time.Duration                           { return r.now }
func (r *refEngine) Schedule(at time.Duration, fn func())         { r.add(at, 0, false, fn) }
func (r *refEngine) SchedulePriority(at time.Duration, fn func()) { r.add(at, -1, false, fn) }
func (r *refEngine) ScheduleAfter(d time.Duration, fn func())     { r.add(r.now+max(d, 0), 0, false, fn) }
func (r *refEngine) ScheduleHousekeepingAfter(d time.Duration, fn func()) {
	r.add(r.now+max(d, 0), 0, true, fn)
}

func (r *refEngine) Step() bool {
	if len(r.q) == 0 {
		return false
	}
	ev := r.q[0]
	r.q = r.q[1:]
	r.now = ev.at
	ev.fn()
	return true
}

func (r *refEngine) RunUntil(t time.Duration) {
	for len(r.q) > 0 && r.q[0].at <= t {
		r.Step()
	}
	r.now = max(r.now, t)
}

func (r *refEngine) RunPending() {
	for r.PendingWork() > 0 && r.Step() {
	}
}

func (r *refEngine) Pending() int { return len(r.q) }

func (r *refEngine) PendingWork() int {
	n := 0
	for _, ev := range r.q {
		if !ev.hk {
			n++
		}
	}
	return n
}

// play runs the program prog on eng and returns what it saw: each
// executed event's id and clock, and after every operation the clock
// and both pending counts. Each byte read picks an operation; schedule
// operations read two more: the delay (0-7, so ties abound) and how
// many children (0-3) the event schedules from inside its fn, whose
// bytes are read when it runs.
func play(eng engine, prog []byte) []int64 {
	var log []int64
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	var ids int64
	var lastPri time.Duration // latest priority stamp scheduled
	var schedule func(kind int)
	schedule = func(kind int) {
		id, d, depth := ids, time.Duration(next()%8), next()%4
		ids++
		fn := func() {
			log = append(log, id, int64(eng.Now()))
			for ; depth > 0; depth-- {
				schedule(next() % 5)
			}
		}
		switch now := eng.Now(); kind {
		case 0: // a stamp-ordered arrival
			lastPri = max(lastPri, now) + d
			eng.SchedulePriority(lastPri, fn)
		case 1: // an arrival that may be out of order
			eng.SchedulePriority(now+d, fn)
			lastPri = max(lastPri, now+d)
		case 2:
			eng.Schedule(now+d, fn)
		case 3:
			eng.ScheduleAfter(0, fn)
		case 4:
			eng.ScheduleHousekeepingAfter(d, fn)
		}
	}
	observe := func() {
		log = append(log, int64(eng.Now()), int64(eng.Pending()), int64(eng.PendingWork()))
	}
	for len(prog) > 0 {
		switch op := next() % 8; op {
		case 5:
			eng.Step()
		case 6:
			eng.RunUntil(eng.Now() + time.Duration(next()%16))
		case 7:
			eng.RunPending()
		default:
			schedule(op)
		}
		observe()
	}
	for eng.Step() {
		observe()
	}
	return log
}

// checkLockstep runs prog on an Engine and on the reference and fails
// at the first observation where they part.
func checkLockstep(t *testing.T, prog []byte) {
	t.Helper()
	got, want := play(NewEngine(), prog), play(&refEngine{}, prog)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("program %x: observation %d is %d, reference %d\nengine    %v\nreference %v", prog, i, got[i], want[i], got, want)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("program %x: %d observations, reference %d", prog, len(got), len(want))
	}
}

// TestEngineOrderLockstep: on random programs mixing in-order and
// out-of-order arrivals, plain, zero-delay and housekeeping events,
// events that schedule more from inside fn, Step, RunUntil and
// RunPending, the engine (lane plus heap) executes exactly the
// reference's sequence, at the same clock, with the same pending
// counts.
func TestEngineOrderLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 3000 {
		prog := make([]byte, 1+rng.Intn(160))
		rng.Read(prog)
		checkLockstep(t, prog)
	}
}

// FuzzEngineOrder is TestEngineOrderLockstep over fuzzed programs.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 1, 0, 1, 1, 0, 5, 5, 5})
	f.Fuzz(checkLockstep)
}

// TestLaneStaysBounded: a lane that never drains (every arrival
// schedules the next, eight stay queued) keeps its array small.
func TestLaneStaysBounded(t *testing.T) {
	e := NewEngine()
	var last time.Duration
	var arrive func()
	arrive = func() {
		last++
		e.SchedulePriority(last, arrive)
	}
	for range 8 {
		arrive()
	}
	for range 10000 {
		e.Step()
	}
	if len(e.events) != 0 {
		t.Fatalf("%d stamp-ordered arrivals went to the heap", len(e.events))
	}
	if n, c := e.lane.len(), cap(e.lane.q); n != 8 || c > 32 {
		t.Fatalf("lane holds %d events in an array of %d, want 8 in at most 32", n, c)
	}
}
