package sim

import "time"

// Server is the queueing abstraction shared by Station (one server) and
// MultiStation (k servers): the EDC engine compresses on a Server so a
// multicore host can be modeled by raising the worker count.
type Server interface {
	Submit(Job)
	Stats() Stats
	QueueLen() int
}

var (
	_ Server = (*Station)(nil)
	_ Server = (*MultiStation)(nil)
)

// MultiStation is a k-server FIFO queue: jobs start in arrival order on
// the first free server (an M/G/k-style station).
type MultiStation struct {
	eng     *Engine
	name    string
	workers int

	queue    []Job
	arrivals []time.Duration
	busy     int

	jobs     int64
	busyTime time.Duration
	waitTime time.Duration
	maxQueue int
}

// NewMultiStation returns an idle k-server station (k >= 1).
func NewMultiStation(e *Engine, name string, workers int) *MultiStation {
	if workers < 1 {
		workers = 1
	}
	return &MultiStation{eng: e, name: name, workers: workers}
}

// Name returns the station's name.
func (s *MultiStation) Name() string { return s.name }

// Workers returns the server count.
func (s *MultiStation) Workers() int { return s.workers }

// Submit enqueues j at the current virtual time; it starts immediately
// when a server is free.
func (s *MultiStation) Submit(j Job) {
	if j.Service < 0 {
		j.Service = 0
	}
	s.queue = append(s.queue, j)
	s.arrivals = append(s.arrivals, s.eng.Now())
	depth := len(s.queue) + s.busy
	if depth > s.maxQueue {
		s.maxQueue = depth
	}
	s.dispatch()
}

// dispatch starts queued jobs while servers are free.
func (s *MultiStation) dispatch() {
	for s.busy < s.workers && len(s.queue) > 0 {
		j := s.queue[0]
		arr := s.arrivals[0]
		s.queue, s.arrivals = popFront(s.queue), popFront(s.arrivals)
		s.busy++
		start := s.eng.Now()
		s.waitTime += start - arr
		s.eng.ScheduleAfter(j.Service, func() {
			end := s.eng.Now()
			s.jobs++
			s.busyTime += end - start
			s.busy--
			if j.Done != nil {
				j.Done(start, end)
			}
			s.dispatch()
		})
	}
}

// QueueLen returns the number of jobs waiting (excluding those in
// service).
func (s *MultiStation) QueueLen() int { return len(s.queue) }

// Busy returns the number of occupied servers.
func (s *MultiStation) Busy() int { return s.busy }

// Stats returns a snapshot of the counters. BusyTime sums across
// servers, so it can exceed elapsed virtual time.
func (s *MultiStation) Stats() Stats {
	return Stats{Jobs: s.jobs, BusyTime: s.busyTime, WaitTime: s.waitTime, MaxQueue: s.maxQueue}
}
