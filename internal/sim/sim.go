// Package sim is a small discrete-event simulation kernel: a virtual
// clock, an event heap, periodic housekeeping timers and single-server
// FIFO stations. The EDC replay engine models the host as a tandem of
// stations — a CPU station where (de)compression executes and one
// device station per SSD — so queueing delay under bursty arrivals
// emerges naturally, which is the mechanism behind the paper's Fig. 10
// (heavy codecs inflate the I/O queue).
package sim

import (
	"fmt"
	"time"
)

// Engine is a discrete-event simulator over virtual time. The zero value
// is not usable; call NewEngine.
type Engine struct {
	now    time.Duration
	events eventHeap
	seq    int64
	ran    int64
	hk     int // housekeeping events currently in the heap
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

type event struct {
	at  time.Duration
	pri int8  // class tie-break: priority events run before plain ones
	seq int64 // FIFO tie-break for simultaneous same-class events
	fn  func()
}

// before is the event total order: time, then class, then FIFO sequence.
// seq is unique per engine, so the order has no ties and the pop
// sequence is independent of the heap's internal shape.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// eventHeap is a hand-rolled 4-ary min-heap over a plain event slice.
// Compared with container/heap it avoids interface boxing on every
// Push/Pop (which allocated one escape per scheduled event) and halves
// the sift depth; the backing array is retained across pops, so a
// steady-state Schedule/Step cycle allocates nothing once the heap has
// reached its high-water mark.
type eventHeap []event

// push inserts ev, sifting it up toward the root at index 0.
func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !s[i].before(&s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

// pop removes and returns the minimum event (the root).
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the closure reference so the GC can reclaim it
	s = s[:n]
	*h = s
	// Sift the displaced element down: pick the smallest of up to four
	// children, swap while it precedes the parent.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for k := c + 1; k < end; k++ {
			if s[k].before(&s[min]) {
				min = k
			}
		}
		if !s[min].before(&s[i]) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn at virtual time `at`. Scheduling in the past panics:
// it indicates a logic error in the caller.
func (e *Engine) Schedule(at time.Duration, fn func()) {
	e.schedule(at, 0, fn)
}

// SchedulePriority runs fn at virtual time `at`, ahead of every plain
// event scheduled for the same instant; among priority events FIFO
// order applies. Trace replay schedules request arrivals in this class
// so an arrival streamed into the heap mid-run keeps exactly the
// ordering it had when every arrival was pre-scheduled before the first
// plain event existed.
func (e *Engine) SchedulePriority(at time.Duration, fn func()) {
	e.schedule(at, -1, fn)
}

func (e *Engine) schedule(at time.Duration, pri int8, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	e.events.push(event{at: at, pri: pri, seq: e.seq, fn: fn})
	e.seq++
}

// ScheduleAfter runs fn after delay d (d < 0 is clamped to 0).
func (e *Engine) ScheduleAfter(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, fn)
}

// Step executes the next event, advancing the clock. It reports whether
// an event was executed.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.at
	e.ran++
	ev.fn()
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunPending executes events while non-housekeeping work remains,
// then stops — housekeeping-only timers stay queued. Live (serve-mode)
// loops use this between batches: a maintenance or checkpoint timer
// parked at now+interval must not fast-forward the clock past arrival
// stamps still to come, or every later operation is billed for skew
// the workload never offered. The parked timers fire in order when
// real events push the clock past their deadlines.
func (e *Engine) RunPending() {
	for e.PendingWork() > 0 && e.Step() {
	}
}

// RunUntil executes events with time <= t, then sets the clock to t.
func (e *Engine) RunUntil(t time.Duration) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.events) }

// ScheduleHousekeepingAfter runs fn after delay d like ScheduleAfter,
// but counts the event as housekeeping: PendingWork excludes it. Timers
// (checkpoints, maintenance ticks), which re-arm only while the engine
// has other work, schedule themselves in this class — gating on Pending
// alone, two of them would each see the other and keep the heap alive
// forever.
func (e *Engine) ScheduleHousekeepingAfter(d time.Duration, fn func()) {
	e.hk++
	e.ScheduleAfter(d, func() {
		e.hk--
		fn()
	})
}

// PendingWork returns the number of scheduled events that are not
// housekeeping timers — the count a housekeeping loop consults to
// decide whether re-arming can keep the event loop from draining.
func (e *Engine) PendingWork() int { return len(e.events) - e.hk }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() int64 { return e.ran }

// Timer is a periodic housekeeping timer: every interval of virtual
// time it runs its tick, and it re-arms itself while the tick asks to
// continue and the engine has other work pending. A timer that finds
// nothing else queued disarms itself, so two timers on one engine never
// keep each other alive; a later Arm (a serve shard's next batch)
// brings it back.
type Timer struct {
	eng   *Engine
	every time.Duration
	tick  func() bool
	fire  func()
	armed bool
}

// NewTimer returns a disarmed timer on e that runs tick every interval
// once armed; tick reports whether the timer should go on.
func NewTimer(e *Engine, every time.Duration, tick func() bool) *Timer {
	t := &Timer{eng: e, every: every, tick: tick}
	t.fire = func() {
		t.armed = false
		if t.tick() && t.eng.PendingWork() > 0 {
			t.Arm()
		}
	}
	return t
}

// Arm schedules the next tick unless one is queued. A nil timer is
// switched off and Arm does nothing.
func (t *Timer) Arm() {
	if t == nil || t.armed {
		return
	}
	t.armed = true
	t.eng.ScheduleHousekeepingAfter(t.every, t.fire)
}

// Job is one unit of work for a Station.
type Job struct {
	// Service is the time the job occupies the server.
	Service time.Duration
	// Done, if non-nil, runs at completion with the job's service start
	// and end times.
	Done func(start, end time.Duration)
}

// Station is a single-server FIFO queue driven by an Engine.
type Station struct {
	eng  *Engine
	name string

	queue []Job
	busy  bool

	// statistics
	jobs      int64
	busyTime  time.Duration
	waitTime  time.Duration
	maxQueue  int
	lastStart time.Duration
	arrivals  []time.Duration // parallel to queue: arrival times of queued jobs

	// cur is the job in service (started at lastStart); finish, its
	// completion event, is bound once.
	cur    Job
	finish func()
}

// NewStation returns an idle station attached to e.
func NewStation(e *Engine, name string) *Station {
	s := &Station{eng: e, name: name}
	s.finish = s.complete
	return s
}

// Name returns the station's name.
func (s *Station) Name() string { return s.name }

// Submit enqueues j at the current virtual time. If the server is idle
// the job starts immediately.
func (s *Station) Submit(j Job) {
	if j.Service < 0 {
		j.Service = 0
	}
	s.queue = append(s.queue, j)
	s.arrivals = append(s.arrivals, s.eng.Now())
	depth := len(s.queue)
	if s.busy {
		depth++ // include the job in service
	}
	if depth > s.maxQueue {
		s.maxQueue = depth
	}
	if !s.busy {
		s.startNext()
	}
}

func (s *Station) startNext() {
	if len(s.queue) == 0 {
		s.busy = false
		return
	}
	j := s.queue[0]
	arr := s.arrivals[0]
	s.queue, s.arrivals = popFront(s.queue), popFront(s.arrivals)
	s.busy = true
	start := s.eng.Now()
	s.lastStart = start
	s.waitTime += start - arr
	s.cur = j
	s.eng.ScheduleAfter(j.Service, s.finish)
}

// complete ends the job in service and starts the next.
func (s *Station) complete() {
	j, start, end := s.cur, s.lastStart, s.eng.Now()
	s.cur = Job{}
	s.jobs++
	s.busyTime += end - start
	if j.Done != nil {
		j.Done(start, end)
	}
	s.startNext()
}

// QueueLen returns the number of waiting jobs (excluding the one in
// service).
func (s *Station) QueueLen() int { return len(s.queue) }

// popFront drops q's head. A queue that empties restarts at the front of
// its array, so a station that is mostly idle or one job deep appends
// into the same array instead of sliding off its end into a new one.
func popFront[T any](q []T) []T {
	var zero T
	q[0] = zero // release what the job holds
	if len(q) == 1 {
		return q[:0]
	}
	return q[1:]
}

// Busy reports whether the server is occupied.
func (s *Station) Busy() bool { return s.busy }

// Stats summarizes the station's activity.
type Stats struct {
	Jobs     int64
	BusyTime time.Duration
	WaitTime time.Duration // total time jobs spent queued before service
	MaxQueue int
}

// Stats returns a snapshot of the station's counters.
func (s *Station) Stats() Stats {
	return Stats{Jobs: s.jobs, BusyTime: s.busyTime, WaitTime: s.waitTime, MaxQueue: s.maxQueue}
}

// Utilization returns busy time divided by elapsed virtual time (0 when
// the clock has not advanced).
func (s *Station) Utilization() float64 {
	if s.eng.Now() == 0 {
		return 0
	}
	return float64(s.busyTime) / float64(s.eng.Now())
}
