package sim

import (
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	e.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 3*time.Millisecond {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v; want FIFO", order)
		}
	}
}

// TestPriorityEventsBeatPlainEvents pins the contract behind streamed
// trace replay: at one virtual time, every SchedulePriority event runs
// before any plain Schedule event regardless of insertion order, and
// within each class insertion order (seq) is preserved.
func TestPriorityEventsBeatPlainEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	at := time.Millisecond
	e.Schedule(at, func() { order = append(order, "plain0") })
	e.SchedulePriority(at, func() { order = append(order, "pri0") })
	e.Schedule(at, func() { order = append(order, "plain1") })
	e.SchedulePriority(at, func() { order = append(order, "pri1") })
	// An earlier plain event still runs first: priority only breaks ties
	// at equal times.
	e.Schedule(at/2, func() { order = append(order, "early") })
	e.Run()
	want := []string{"early", "pri0", "pri1", "plain0", "plain1"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on scheduling in the past")
		}
	}()
	e.Schedule(time.Millisecond, func() {})
}

func TestScheduleAfterNegativeClamps(t *testing.T) {
	e := NewEngine()
	ran := false
	e.ScheduleAfter(-5*time.Second, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("negative delay should run at current time")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	e.RunUntil(5 * time.Second)
	if count != 5 {
		t.Fatalf("count = %d; want 5", count)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("now = %v", e.Now())
	}
	if e.Pending() != 5 {
		t.Fatalf("pending = %d", e.Pending())
	}
}

func TestCascadingEvents(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		if depth < 100 {
			depth++
			e.ScheduleAfter(time.Millisecond, recurse)
		}
	}
	e.ScheduleAfter(0, recurse)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d", depth)
	}
	if e.Executed() != 101 {
		t.Fatalf("executed = %d", e.Executed())
	}
}

func TestStationFIFOAndTiming(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, "dev")
	var completions []time.Duration
	submit := func(at, service time.Duration) {
		e.Schedule(at, func() {
			s.Submit(Job{Service: service, Done: func(_, end time.Duration) {
				completions = append(completions, end)
			}})
		})
	}
	// Three jobs arriving together at t=0 with 10ms service each.
	submit(0, 10*time.Millisecond)
	submit(0, 10*time.Millisecond)
	submit(0, 10*time.Millisecond)
	e.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i, w := range want {
		if completions[i] != w {
			t.Fatalf("completion %d = %v; want %v", i, completions[i], w)
		}
	}
	st := s.Stats()
	if st.Jobs != 3 {
		t.Fatalf("jobs = %d", st.Jobs)
	}
	if st.BusyTime != 30*time.Millisecond {
		t.Fatalf("busy = %v", st.BusyTime)
	}
	// Jobs 2 and 3 waited 10ms and 20ms.
	if st.WaitTime != 30*time.Millisecond {
		t.Fatalf("wait = %v", st.WaitTime)
	}
	if st.MaxQueue != 3 {
		t.Fatalf("maxQueue = %d", st.MaxQueue)
	}
}

func TestStationQueueAccounting(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, "cpu")
	e.Schedule(0, func() {
		for i := 0; i < 5; i++ {
			s.Submit(Job{Service: time.Millisecond})
		}
		if !s.Busy() {
			t.Error("station idle with jobs queued")
		}
		if s.QueueLen() != 4 {
			t.Errorf("queue = %d; want 4", s.QueueLen())
		}
	})
	e.Run()
	if s.Busy() || s.QueueLen() != 0 {
		t.Fatalf("busy = %v, queue = %d after the run", s.Busy(), s.QueueLen())
	}
	// Job i waits i ms: 0+1+2+3+4.
	if st := s.Stats(); st.MaxQueue != 5 || st.WaitTime != 10*time.Millisecond {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStationIdlePeriod(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, "dev")
	var last time.Duration
	e.Schedule(0, func() {
		s.Submit(Job{Service: time.Millisecond, Done: func(_, end time.Duration) { last = end }})
	})
	e.Schedule(time.Second, func() {
		s.Submit(Job{Service: time.Millisecond, Done: func(_, end time.Duration) { last = end }})
	})
	e.Run()
	if last != time.Second+time.Millisecond {
		t.Fatalf("last completion = %v", last)
	}
	if u := s.Utilization(); u > 0.01 {
		t.Fatalf("utilization = %v; want ~0.002", u)
	}
}

func TestStationZeroService(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, "cpu")
	done := 0
	e.Schedule(0, func() {
		s.Submit(Job{Service: 0, Done: func(start, end time.Duration) {
			if start != end {
				t.Errorf("zero-service job start %v != end %v", start, end)
			}
			done++
		}})
		s.Submit(Job{Service: -time.Second, Done: func(_, _ time.Duration) { done++ }})
	})
	e.Run()
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
}

func TestTandemStations(t *testing.T) {
	// CPU (5ms) feeding device (10ms): completion of the second job is
	// bounded by the device, not the CPU.
	e := NewEngine()
	cpu := NewStation(e, "cpu")
	dev := NewStation(e, "dev")
	var completions []time.Duration
	submitWrite := func(at time.Duration) {
		e.Schedule(at, func() {
			cpu.Submit(Job{Service: 5 * time.Millisecond, Done: func(_, _ time.Duration) {
				dev.Submit(Job{Service: 10 * time.Millisecond, Done: func(_, end time.Duration) {
					completions = append(completions, end)
				}})
			}})
		})
	}
	submitWrite(0)
	submitWrite(0)
	e.Run()
	if completions[0] != 15*time.Millisecond {
		t.Fatalf("first completion = %v; want 15ms", completions[0])
	}
	if completions[1] != 25*time.Millisecond { // cpu done at 10, waits for dev until 15, +10
		t.Fatalf("second completion = %v; want 25ms", completions[1])
	}
}
