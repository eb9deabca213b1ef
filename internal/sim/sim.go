// Package sim is a small discrete-event simulation kernel: a virtual
// clock, an event queue, periodic housekeeping timers and single-server
// FIFO stations. The EDC replay engine models the host as a tandem of
// stations — a CPU station where (de)compression executes and one
// device station per SSD — so queueing delay under bursty arrivals
// emerges naturally, which is the mechanism behind the paper's Fig. 10
// (heavy codecs inflate the I/O queue).
//
// The event queue is two structures under one total order: a FIFO lane
// that takes priority events (arrivals) scheduled in stamp order, and a
// 4-ary heap that takes everything else. Each pop takes the earlier of
// the lane's head and the heap's root, so the engine runs exactly the
// sequence one heap would.
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
	lane   eventLane
	seq    int64
	ran    int64
	hk     int // housekeeping events currently in the heap
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

type event struct {
	at time.Duration
	class
	seq int64 // FIFO tie-break for simultaneous same-class events
	fn  func()
}

// class shares one field of event between the class tie-break and the
// housekeeping bit, in the padding after pri. It is one field so event
// keeps four: the compiler keeps a struct of at most four fields in
// registers, and copies a larger one through memory on every push, swap
// and pop (with pri and hk as two fields of event,
// BenchmarkEngineServeBatch ran 20-35 % slower).
type class struct {
	pri int8 // priority events run before plain ones
	hk  bool // housekeeping: PendingWork does not count it
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

// eventLane is a FIFO of events already in before-order: q[head:] is
// the queue, and push refuses an event that would break the order. A
// stamp-ordered submitter's arrivals go in and out in O(1) instead of
// sifting through a heap of every other arrival in its batch.
type eventLane struct {
	q    []event
	head int
}

func (l *eventLane) len() int { return len(l.q) - l.head }

// front returns the lane's earliest event; the lane must not be empty.
func (l *eventLane) front() *event { return &l.q[l.head] }

// push appends ev unless ev is before the lane's last event, and
// reports whether it did. A lane whose consumed prefix passes half of
// it first slides the rest down, so its array stays within about twice
// its length even when it never drains.
func (l *eventLane) push(ev event) bool {
	n := len(l.q)
	if n > l.head && ev.before(&l.q[n-1]) {
		return false
	}
	if l.head > n/2 {
		m := copy(l.q, l.q[l.head:])
		clear(l.q[m:])
		l.q, l.head = l.q[:m], 0
	}
	l.q = append(l.q, ev)
	return true
}

// pop removes and returns the front event. A drained lane restarts at
// the front of its array.
func (l *eventLane) pop() event {
	ev := l.q[l.head]
	l.q[l.head] = event{} // drop the closure reference
	if l.head++; l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
	return ev
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn at virtual time `at`. Scheduling in the past panics:
// it indicates a logic error in the caller.
func (e *Engine) Schedule(at time.Duration, fn func()) {
	e.schedule(at, 0, false, fn)
}

// SchedulePriority runs fn at virtual time `at`, ahead of every plain
// event scheduled for the same instant; among priority events FIFO
// order applies. Trace replay schedules request arrivals in this class
// so an arrival streamed in mid-run keeps exactly the ordering it had
// when every arrival was pre-scheduled before the first plain event
// existed. An event that is not before the lane's last event is
// appended to the FIFO lane at O(1) cost; an out-of-order one goes to
// the heap.
func (e *Engine) SchedulePriority(at time.Duration, fn func()) {
	e.schedule(at, -1, false, fn)
}

func (e *Engine) schedule(at time.Duration, pri int8, hk bool, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	ev := event{at: at, class: class{pri, hk}, seq: e.seq, fn: fn}
	e.seq++
	if pri < 0 && e.lane.push(ev) {
		return
	}
	e.events.push(ev)
}

// ScheduleAfter runs fn after delay d (d < 0 is clamped to 0).
func (e *Engine) ScheduleAfter(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, fn)
}

// next returns the earliest queued event, or nil when none is, and
// whether it is the lane's front rather than the heap's root.
func (e *Engine) next() (ev *event, lane bool) {
	if e.lane.len() > 0 {
		ev = e.lane.front()
		if len(e.events) == 0 || ev.before(&e.events[0]) {
			return ev, true
		}
	}
	if len(e.events) == 0 {
		return nil, false
	}
	return &e.events[0], false
}

// Step executes the next event, advancing the clock. It reports whether
// an event was executed.
func (e *Engine) Step() bool {
	ev, lane := e.next()
	if ev != nil {
		e.run(lane)
	}
	return ev != nil
}

// run pops the event next returned and executes it.
func (e *Engine) run(lane bool) {
	var ev event
	if lane {
		ev = e.lane.pop()
	} else {
		ev = e.events.pop()
	}
	e.now = ev.at
	e.ran++
	if ev.hk {
		e.hk--
	}
	ev.fn()
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
	for ev, lane := e.next(); ev != nil && ev.at <= t; ev, lane = e.next() {
		e.run(lane)
	}
	if t > e.now {
		e.now = t
	}
}

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.events) + e.lane.len() }

// ScheduleHousekeepingAfter runs fn after delay d like ScheduleAfter,
// but counts the event as housekeeping: PendingWork excludes it. Timers
// (checkpoints, maintenance ticks), which re-arm only while the engine
// has other work, schedule themselves in this class — gating on Pending
// alone, two of them would each see the other and keep the heap alive
// forever.
func (e *Engine) ScheduleHousekeepingAfter(d time.Duration, fn func()) {
	e.hk++
	e.schedule(e.now+max(d, 0), 0, true, fn)
}

// PendingWork returns the number of scheduled events that are not
// housekeeping timers — the count a housekeeping loop consults to
// decide whether re-arming can keep the event loop from draining.
func (e *Engine) PendingWork() int { return e.Pending() - e.hk }

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
